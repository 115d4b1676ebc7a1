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
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Set

from ..coi.engine import COIEngine
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
    device: int
    #: Card bytes the job pins (offload heap + local store + image).
    footprint: int
    state: str = "resident"  # resident | swapped
    swap_count: int = 0
    #: The snapify_t of the last swap cycle; its ``op`` is the in-flight or
    #: completed operation for this job (field(...) keeps dataclass eq).
    snap: Optional[object] = field(default=None, compare=False)


class SwapScheduler:
    """Greedy largest-victim swapping policy for one card.

    Every swap rides a :class:`~repro.snapify.fleet.FleetManager` ticket at
    SWAP priority: on the caller's manager, whose admission control then
    bounds this scheduler's swaps together with the rest of the fleet's
    traffic, or else on a private manager named after the card. Health
    reports from fleet sweeps gate reclaim (no point swapping a tenant back
    onto a failed or straggling card)."""

    def __init__(self, server: "XeonPhiServer", device: int = 0,
                 headroom: int = 512 * 1024 * 1024,
                 fleet: Optional[FleetManager] = None):
        self.server = server
        self.sim = server.sim
        self.device = device
        self.phi = server.node.phis[device]
        #: Keep this much card memory free for the OS and RAM-FS churn.
        self.headroom = headroom
        self.jobs: Dict[int, TenantJob] = {}
        #: Typed results of every swap operation this scheduler issued.
        self.operations: List[OperationResult] = []
        #: This card's fleet address and the manager whose tickets carry
        #: every swap.
        self.card = CardRef(node=self.phi.node_index, device=device)
        ck = self.card.key
        self.fleet = fleet or FleetManager(sim=self.sim, name=f"sched.{ck}")
        #: Card keys the last health report flagged (failed or straggling).
        self.unhealthy_cards: Set[str] = set()
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
    def note_health(self, report: Any) -> None:
        """Consume a :class:`~repro.snapify.fleet.HealthReport`: remember
        which cards are failed or straggling so placement decisions can
        avoid them. Each report replaces the previous one's verdict."""
        self.unhealthy_cards = {h.card for h in report.failed}
        self.unhealthy_cards.update(h.card for h in report.stragglers())

    def card_healthy(self) -> bool:
        """False when the last health report flagged this scheduler's card."""
        return self.card.key not in self.unhealthy_cards

    # -- bookkeeping -------------------------------------------------------------
    def register(self, host_proc: SimProcess, footprint: int) -> TenantJob:
        job = TenantJob(host_proc=host_proc, device=self.device, footprint=footprint)
        self.jobs[host_proc.pid] = job
        return job

    def resident_jobs(self) -> List[TenantJob]:
        return [j for j in self.jobs.values() if j.state == "resident"]

    def swapped_jobs(self) -> List[TenantJob]:
        return [j for j in self.jobs.values() if j.state == "swapped"]

    def _free_after(self, incoming: int) -> int:
        return self.phi.memory.available - incoming - self.headroom

    # -- policy ------------------------------------------------------------------
    def make_room(self, incoming: int):
        """Sub-generator: swap out the largest residents until ``incoming``
        bytes fit (plus headroom). Returns the list of victims swapped."""
        victims = []
        while self._free_after(incoming) < 0:
            candidates = sorted(
                self.resident_jobs(), key=lambda j: j.footprint, reverse=True
            )
            if not candidates:
                break  # nothing left to evict; the launch may still OOM
            victim = candidates[0]
            yield from self._swap_out(victim)
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
            yield from self._swap_in(job)
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
            yield from self._swap_out(job, priority=MAINTENANCE)
            victims.append(job)
        self.sim.trace.emit("sched.evacuate", device=self.device,
                            card=self.card.key, jobs=len(victims))
        return victims

    def job_finished(self, host_proc: SimProcess):
        """Sub-generator: drop a finished job and reclaim swapped tenants."""
        self.jobs.pop(host_proc.pid, None)
        result = yield from self.reclaim()
        return result

    # -- mechanics ----------------------------------------------------------------
    def _fleet_issue(self, kind: str, job: TenantJob, command, priority=SWAP):
        """Sub-generator: run a snapify CLI command as a fleet ticket so the
        fleet's admission caps govern it. Returns the terminal ticket."""
        self._fleet_seq += 1
        key = f"sched.{self.card.key}/{kind}.{job.host_proc.pid}.{self._fleet_seq}"

        def work():
            return (yield command())

        ticket = self.fleet.submit(key, kind, work, card=self.card,
                                   priority=priority, proc=job.host_proc)
        if not ticket.done.triggered:
            yield ticket.done
        if ticket.state != "DONE":
            raise SnapifyError(f"scheduler {kind} failed: {ticket.error}")
        return ticket

    def _swap_out(self, job: TenantJob, priority=SWAP):
        def command():
            return snapify_command(
                job.host_proc, SWAP_OUT,
                snapshot_path=f"/swap/job_{job.host_proc.pid}",
            )

        ticket = yield from self._fleet_issue("swapout", job, command, priority)
        job.snap = ticket.result
        self._record(job)
        job.state = "swapped"
        job.swap_count += 1
        self.m_swap_outs.inc()
        self.sim.trace.emit("sched.swap_out", proc=job.host_proc.name,
                            card=self.card.key, footprint=job.footprint)

    def _swap_in(self, job: TenantJob):
        engine = COIEngine(self.server.node, self.device)

        def command():
            return snapify_command(job.host_proc, SWAP_IN, engine=engine)

        yield from self._fleet_issue("swapin", job, command)
        # The CLI handler drove the swap-in on the same snapify_t it parked
        # at swap-out; its operation is now the swap-in's.
        self._record(job)
        job.state = "resident"
        self.m_swap_ins.inc()
        self.sim.trace.emit("sched.swap_in", proc=job.host_proc.name,
                            card=self.card.key, footprint=job.footprint)

    def _record(self, job: TenantJob) -> None:
        snap = job.snap
        if snap is not None and snap.op is not None and snap.op.result is not None:
            self.operations.append(snap.op.result)
