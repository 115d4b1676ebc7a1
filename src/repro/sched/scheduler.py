"""A multi-tenant card scheduler built on process swapping.

§1's motivation: the Phi's 8 GB and its pinned COI buffers put a hard cap on
co-resident offload processes, and OS paging can't help. A COSMIC-style
scheduler instead *swaps whole offload processes* to host storage: when a
queued job doesn't fit, the scheduler swaps out the resident job with the
largest footprint, runs the newcomer, and swaps the victim back in when
memory frees up.

This is the paper's intended consumer of ``snapify_swapout``/``swapin``
(the resource-contention policy it explicitly scopes out is exactly what
lives here).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from ..coi.engine import COIEngine
from ..hw import MB
from ..obs.registry import MetricsRegistry
from ..osim.process import SimProcess
from ..snapify.cli import SWAP_IN, SWAP_OUT, snapify_command
from ..snapify.fleet import MAINTENANCE, SWAP, CardRef, FleetManager
from ..snapify.monitor import SnapifyError
from ..snapify.ops import OperationResult

if TYPE_CHECKING:  # pragma: no cover
    from ..testbed import XeonPhiServer


@dataclass
class TenantJob:
    """One scheduled offload application."""

    host_proc: SimProcess
    #: Card bytes the job pins (offload heap + local store + image).
    footprint: int
    state: str = "resident"  # resident | swapped
    swap_count: int = 0
    #: The snapify_t of the last swap-out; its ``op`` is the job's latest
    #: swap operation (field(...) keeps dataclass eq).
    snap: Optional[object] = field(default=None, compare=False)


#: Card memory the scheduler keeps free for the OS and RAM-FS churn.
HEADROOM = 256 * MB


class SwapScheduler:
    """Greedy largest-victim swapping policy for one card.

    Every swap rides a :class:`~repro.snapify.fleet.FleetManager` ticket at
    SWAP priority: on the caller's manager, whose admission control then
    bounds this scheduler's swaps together with the rest of the fleet's
    traffic, or else on a private manager named after the card. The
    manager's last health sweep gates reclaim (no point swapping a tenant
    back onto a failed or straggling card)."""

    def __init__(self, server: "XeonPhiServer", device: int = 0,
                 fleet: Optional[FleetManager] = None):
        self.server = server
        self.sim = server.sim
        self.device = device
        self.phi = server.node.phis[device]
        self.jobs: Dict[int, TenantJob] = {}
        #: Typed results of every swap operation this scheduler issued.
        self.operations: List[OperationResult] = []
        #: This card's fleet address and the manager whose tickets carry
        #: every swap.
        self.card = CardRef(node=self.phi.node_index, device=device)
        ck = self.card.key
        self.fleet = fleet or FleetManager(sim=self.sim, name=f"sched.{ck}")
        self._fleet_seq = 0
        # Card-keyed series: the ".card.<key>." segment becomes a
        # {card=...} label in the Prometheus export.
        reg = MetricsRegistry.of(self.sim)
        self.m_swap_outs = reg.counter(f"sched.card.{ck}.swap_outs")
        self.m_swap_ins = reg.counter(f"sched.card.{ck}.swap_ins")
        reg.gauge(f"sched.card.{ck}.resident_jobs",
                  lambda: len(self.resident_jobs()))
        reg.gauge(f"sched.card.{ck}.swapped_jobs",
                  lambda: len(self.swapped_jobs()))

    # -- fleet health ------------------------------------------------------------
    def card_healthy(self) -> bool:
        """False when the manager's last health sweep flagged this card as
        failed or straggling. A manager that never swept (a private one)
        reads healthy."""
        report = self.fleet.last_health
        return report is None or all(
            h.card != self.card.key for h in report.failed + report.stragglers())

    # -- bookkeeping -------------------------------------------------------------
    def register(self, host_proc: SimProcess, footprint: int) -> TenantJob:
        job = TenantJob(host_proc=host_proc, footprint=footprint)
        self.jobs[host_proc.pid] = job
        return job

    def resident_jobs(self) -> List[TenantJob]:
        return [j for j in self.jobs.values() if j.state == "resident"]

    def swapped_jobs(self) -> List[TenantJob]:
        return [j for j in self.jobs.values() if j.state == "swapped"]

    def _free_after(self, incoming: int) -> int:
        return self.phi.memory.available - incoming - HEADROOM

    # -- policy ------------------------------------------------------------------
    def make_room(self, incoming: int):
        """Sub-generator: swap out the largest residents until ``incoming``
        bytes fit (plus :data:`HEADROOM`). Returns the list of victims swapped."""
        victims = []
        while self._free_after(incoming) < 0:
            victim = max(self.resident_jobs(), key=lambda j: j.footprint,
                         default=None)
            if victim is None:
                break  # nothing left to evict; the launch may still OOM
            yield from self._swap(victim, "swapout")
            victims.append(victim)
        return victims

    def reclaim(self):
        """Sub-generator: swap jobs back in while they fit (smallest first,
        to maximize the number of running tenants). A card the last health
        sweep flagged gets nothing swapped back onto it."""
        brought_back = []
        if not self.card_healthy():
            self.sim.trace.emit("sched.reclaim_skipped", device=self.device,
                                card=self.card.key)
            return brought_back
        for job in sorted(self.swapped_jobs(), key=lambda j: j.footprint):
            if self._free_after(job.footprint) < 0:
                break
            yield from self._swap(job, "swapin")
            brought_back.append(job)
        return brought_back

    def evacuate(self):
        """Sub-generator: swap out every resident tenant — the maintenance
        action for a card the health sweep flagged. The swaps go out at
        MAINTENANCE priority, ahead of all other fleet traffic. Returns the
        evacuated jobs."""
        victims = []
        for job in sorted(self.resident_jobs(), key=lambda j: j.footprint,
                          reverse=True):
            yield from self._swap(job, "swapout", MAINTENANCE)
            victims.append(job)
        self.sim.trace.emit("sched.evacuate", device=self.device,
                            card=self.card.key, jobs=len(victims))
        return victims

    def job_finished(self, host_proc: SimProcess):
        """Sub-generator: drop a finished job and reclaim swapped tenants."""
        self.jobs.pop(host_proc.pid, None)
        return (yield from self.reclaim())

    # -- mechanics ----------------------------------------------------------------
    def _swap(self, job: TenantJob, kind: str, priority=SWAP):
        """Sub-generator: swap ``job`` out or in (``kind`` is ``"swapout"``
        or ``"swapin"``) with a snapify CLI command run as a fleet ticket,
        so the fleet's admission caps govern it."""
        proc, out = job.host_proc, kind == "swapout"
        engine = None if out else COIEngine(self.server.node, self.device)
        self._fleet_seq += 1
        key = f"sched.{self.card.key}/{kind}.{proc.pid}.{self._fleet_seq}"

        def work():
            return (yield snapify_command(proc, SWAP_OUT if out else SWAP_IN,
                                          engine=engine,
                                          snapshot_path=f"/swap/job_{proc.pid}"))

        ticket = self.fleet.submit(key, kind, work, card=self.card,
                                   priority=priority, proc=proc)
        if not ticket.done.triggered:
            yield ticket.done
        if ticket.state != "DONE":
            raise SnapifyError(f"scheduler {kind} failed: {ticket.error}")
        if out:
            job.snap = ticket.result
            job.swap_count += 1
        # The CLI handler drives the swap-in on the snapify_t it parked at
        # swap-out, so that handle's operation is always the latest swap's.
        self.operations.append(job.snap.op.result)
        job.state = "swapped" if out else "resident"
        (self.m_swap_outs if out else self.m_swap_ins).inc()
        self.sim.trace.emit("sched.swap_out" if out else "sched.swap_in",
                            proc=proc.name, card=self.card.key,
                            footprint=job.footprint)
