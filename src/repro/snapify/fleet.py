"""Fleet control plane: drive Snapify operations across hundreds of cards.

The single-operation layers below this one (:mod:`repro.snapify.ops`,
the §5 use cases) answer "how does *one* checkpoint/swap/migrate run to
completion"; this module answers "how do *hundreds* of them run at once
without trampling each other".  The idiom is the one the ADC16 fleet
controller uses (``snap_manager.py``: one manager object fanning keyed
commands out to a board fleet through a work queue and collecting keyed
results), adapted to the simulated control plane:

* **Admission control** — a global in-flight cap plus a per-card cap.  A
  card's COI daemon serializes captures on its memory bandwidth anyway, so
  letting 50 checkpoints pile onto one card only grows pause time; the
  per-card cap keeps each card at its concurrency sweet spot while the
  global cap bounds host-side memory and fabric pressure.
* **Priority queues** — maintenance (evacuating a failing card) beats
  scheduler swap traffic, which beats background checkpoints.  Within a
  priority, admission is FIFO, except that a request whose card is at its
  per-card cap never blocks a request for an idle card behind it.
* **Keyed submission, keyed results** — ``submit`` takes one keyed
  request and ``collect`` returns a :class:`FleetResult` mapping every
  key to its outcome, aggregating partial failures instead of dying on the
  first one (a fleet where 3 of 300 cards are sick is the *normal* case).
* **Health sweeps** — calibration-style: probe every card with a small
  timed RAM-FS write, and surface dead cards and stragglers (probe latency
  far above the fleet median) in ``last_health``, which gates the swap
  scheduler's reclaim (:meth:`repro.sched.scheduler.SwapScheduler.card_healthy`).

Everything here is layered *on top of* :class:`~repro.snapify.ops.
OperationManager`: each admitted request ultimately runs an ordinary
correlated operation, and the finished operation is tagged with the fleet
key that asked for it (``op.prov.fleet_key``) so fuzz triage and the trace CLI
can attribute control-plane traffic.  The single-operation path does not
go through this module at all — a run that never builds a
:class:`FleetManager` schedules exactly the same events as before (the
golden trace proves it).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from statistics import median
from typing import (
    Any, Callable, Dict, Generator, List, Optional, Sequence, Tuple,
)

from ..obs.registry import MetricsRegistry
from ..obs.slo import straggler_scores
from ..sim.events import Event
from .monitor import SnapifyError
from .ops import OperationManager, OperationResult

# -- priorities -------------------------------------------------------------

#: Evacuations and health probes: the fleet must react to failing hardware
#: before it serves anything else.
MAINTENANCE = 0
#: Scheduler-driven swap traffic: a queued tenant is waiting on it.
SWAP = 1
#: Periodic checkpoints: pure insurance, always preemptible by the above.
BACKGROUND = 2

PRIORITIES = (MAINTENANCE, SWAP, BACKGROUND)
PRIORITY_NAMES = {MAINTENANCE: "maintenance", SWAP: "swap", BACKGROUND: "background"}

# -- ticket states ----------------------------------------------------------

QUEUED = "QUEUED"
RUNNING = "RUNNING"
DONE = "DONE"
FAILED = "FAILED"
TICKET_TERMINAL = (DONE, FAILED)


@dataclass(frozen=True)
class CardRef:
    """One coprocessor in a fleet, addressed as (node index, device index)."""

    node: int
    device: int

    @property
    def key(self) -> str:
        return f"n{self.node}.mic{self.device}"

    def __str__(self) -> str:
        return self.key


class FleetTicket:
    """One submitted request: its queue position, progress, and outcome."""

    __slots__ = ("key", "kind", "card", "priority", "state", "submitted",
                 "admitted", "finished", "result", "error", "done",
                 "work", "proc")

    def __init__(self, key: str, kind: str, work: Callable[[], Generator],
                 card: Optional[CardRef], priority: int, proc: Any,
                 now: float, done: Event):
        self.key = key
        self.kind = kind
        self.card = card
        self.priority = priority
        #: Zero-argument factory for the sub-generator that performs the
        #: work (called only at admission); ``proc`` optionally names the
        #: host process whose context it runs in (operations on a
        #: ``snapify_t`` want their own host process, probes are fine on a
        #: bare kernel thread).
        self.work = work
        self.proc = proc
        self.state = QUEUED
        self.submitted = now
        self.admitted: Optional[float] = None
        self.finished: Optional[float] = None
        #: Whatever the work returned — an OperationResult for the standard
        #: submitters, a CardHealth for probes.
        self.result: Any = None
        self.error: Optional[str] = None
        #: Succeeds with the ticket itself once terminal (never fails, so a
        #: collect() over a partly-failed batch still completes; inspect
        #: ``state``/``error`` for the verdict).
        self.done = done

    @property
    def ok(self) -> bool:
        return self.state == DONE

    @property
    def queue_wait(self) -> Optional[float]:
        if self.admitted is None:
            return None
        return self.admitted - self.submitted

    @property
    def service_time(self) -> Optional[float]:
        if self.admitted is None or self.finished is None:
            return None
        return self.finished - self.admitted

    def describe(self) -> Dict[str, Any]:
        """JSON-safe summary (repro artifacts, CLI tables)."""
        return {
            "key": self.key,
            "kind": self.kind,
            "card": self.card.key if self.card is not None else None,
            "priority": PRIORITY_NAMES.get(self.priority, self.priority),
            "state": self.state,
            "error": self.error,
            "queue_wait": self.queue_wait,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FleetTicket {self.key} {self.kind} {self.state}>"


class FleetResult:
    """Keyed outcomes of one collected batch, partial failures included."""

    def __init__(self, tickets: Dict[str, FleetTicket]):
        self.tickets = tickets

    @property
    def ok(self) -> bool:
        return all(t.state == DONE for t in self.tickets.values())

    @property
    def failures(self) -> Dict[str, FleetTicket]:
        return {k: t for k, t in self.tickets.items() if t.state != DONE}

    @property
    def results(self) -> Dict[str, Any]:
        """key -> work return value (None for failed tickets)."""
        return {k: t.result for k, t in self.tickets.items()}

    def operation_results(self) -> Dict[str, OperationResult]:
        """The subset of results that are typed operation outcomes."""
        return {k: t.result for k, t in self.tickets.items()
                if isinstance(t.result, OperationResult)}

    def by_card(self) -> Dict[str, List[FleetTicket]]:
        out: Dict[str, List[FleetTicket]] = {}
        for t in self.tickets.values():
            out.setdefault(t.card.key if t.card else "-", []).append(t)
        return out

    def raise_on_error(self) -> "FleetResult":
        """Aggregate every failed ticket into one SnapifyError (or return
        self when the whole batch succeeded)."""
        failed = self.failures
        if failed:
            detail = "; ".join(
                f"{k} ({t.kind}) failed: {t.error}" for k, t in failed.items()
            )
            raise SnapifyError(
                f"{len(failed)}/{len(self.tickets)} fleet operation(s) failed: "
                f"{detail}"
            )
        return self

    def summary(self) -> str:
        n_ok = sum(1 for t in self.tickets.values() if t.state == DONE)
        bits = [f"fleet batch: {len(self.tickets)} ops, {n_ok} ok, "
                f"{len(self.tickets) - n_ok} failed"]
        bits.extend(f"  FAIL {k} ({t.kind}): {t.error}"
                    for k, t in self.failures.items())
        return "\n".join(bits)

    def __len__(self) -> int:
        return len(self.tickets)


# ---------------------------------------------------------------------------
# Health sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CardHealth:
    """One card's probe outcome."""

    card: str  # CardRef.key
    ok: bool
    #: Probe service latency in simulated seconds (None when the probe
    #: failed before it could time anything).
    latency: Optional[float]
    error: Optional[str] = None


#: Bytes each health probe writes and reads back on a card's RAM-FS.
PROBE_BYTES = 1024 * 1024


class HealthReport:
    """All cards' probe outcomes from one sweep, with outlier analysis."""

    def __init__(self, entries: Sequence[CardHealth], when: float):
        self.entries = list(entries)
        self.when = when

    @property
    def failed(self) -> List[CardHealth]:
        return [h for h in self.entries if not h.ok]

    @property
    def healthy(self) -> List[CardHealth]:
        return [h for h in self.entries if h.ok]

    def median_latency(self) -> Optional[float]:
        lats = [h.latency for h in self.healthy if h.latency is not None]
        return median(lats) if lats else None

    def stragglers(self) -> List[CardHealth]:
        """Healthy cards whose probe latency straggles behind the fleet —
        loaded, degraded, or contended cards the scheduler should
        deprioritize before they become pause-time outliers.

        Applies :func:`repro.obs.slo.straggler_scores`, the rule the
        telemetry :class:`~repro.obs.slo.StragglerSLO` evaluates live: a
        MAD-based robust z-score above 3.5 and at least 10 ms above the
        fleet median, so microsecond jitter on a tightly-clustered fleet
        never flags."""
        flagged = straggler_scores(
            {h.card: h.latency for h in self.healthy if h.latency is not None}
        )
        return [h for h in self.healthy if h.card in flagged]

    def summary(self) -> str:
        bits = [f"health sweep @ {self.when:.3f}s: {len(self.entries)} cards, "
                f"{len(self.failed)} failed, {len(self.stragglers())} straggling"]
        bits.extend(f"  FAILED {h.card}: {h.error}" for h in self.failed)
        bits.extend(f"  STRAGGLER {h.card}: {h.latency * 1e3:.2f} ms "
                    f"(median {self.median_latency() * 1e3:.2f} ms)"
                    for h in self.stragglers())
        return "\n".join(bits)


# ---------------------------------------------------------------------------
# The manager
# ---------------------------------------------------------------------------


class FleetManager:
    """Admission-controlled, priority-queued fleet operation dispatcher.

    One manager drives one fleet (usually a
    :class:`~repro.testbed.XeonPhiFleet`, but anything exposing ``sim``,
    ``cards()`` and ``phi(card)`` works).  Submission is non-blocking:
    ``submit`` enqueues and returns a ticket immediately;
    admission happens as in-flight slots free up, strictly by priority and
    FIFO within a priority.  ``collect`` waits for a batch and returns its
    keyed :class:`FleetResult`.
    """

    #: Simulator attribute holding every manager built on that simulator
    #: (the fuzz oracles audit all of them at quiescence).
    _ATTR = "snapify_fleets"

    def __init__(self, fleet: Any = None, *, sim: Any = None,
                 max_in_flight: int = 16, per_card_limit: int = 2,
                 name: str = "fleet"):
        if fleet is None and sim is None:
            raise ValueError("FleetManager needs a fleet or a simulator")
        if max_in_flight < 1 or per_card_limit < 1:
            raise ValueError("admission caps must be >= 1")
        self.fleet = fleet
        self.sim = sim if sim is not None else fleet.sim
        self.name = name
        self.max_in_flight = max_in_flight
        self.per_card_limit = per_card_limit
        #: Every ticket ever submitted, in submission order.
        self.tickets: List[FleetTicket] = []
        self._queues: Dict[int, List[FleetTicket]] = {p: [] for p in PRIORITIES}
        self.in_flight = 0
        self._per_card: Dict[str, int] = {}
        #: High-water marks, audited by the admission-cap oracle.
        self.hwm_in_flight = 0
        self.hwm_per_card: Dict[str, int] = {}
        self._probe_ids = itertools.count(1)
        #: The most recent :meth:`health_sweep` report (None before one).
        self.last_health: Optional[HealthReport] = None
        registry = MetricsRegistry.of(self.sim)
        self._registry = registry
        self.m_submitted = registry.counter(f"{name}.submitted")
        self.m_completed = registry.counter(f"{name}.completed")
        self.m_failed = registry.counter(f"{name}.failed")
        registry.gauge(f"{name}.queue_depth", self.queue_depth)
        registry.gauge(f"{name}.in_flight", lambda: self.in_flight)
        # Per-priority series ("<name>.prio.<label>.<what>") and per-card
        # series ("<name>.card.<key>.<what>") use the structured segments
        # the Prometheus exporter lifts into {priority=...}/{card=...}
        # labels; per-card instruments are created lazily on first touch so
        # a 128-card topology only pays for the cards it actually drives.
        self._prio_submitted = {
            p: registry.counter(f"{name}.prio.{PRIORITY_NAMES[p]}.submitted")
            for p in PRIORITIES
        }
        self._wait_hist = {
            p: registry.histogram(f"{name}.wait.{PRIORITY_NAMES[p]}")
            for p in PRIORITIES
        }
        self._service_hist = registry.histogram(f"{name}.service")
        self._card_gauges: set = set()
        fleets = getattr(self.sim, self._ATTR, None)
        if fleets is None:
            fleets = []
            setattr(self.sim, self._ATTR, fleets)
        fleets.append(self)

    @classmethod
    def all_of(cls, sim: Any) -> List["FleetManager"]:
        """Every manager built on ``sim`` (empty when the run had none)."""
        return list(getattr(sim, cls._ATTR, ()))

    # -- queue state ---------------------------------------------------------
    def queue_depth(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def quiescent(self) -> bool:
        return self.in_flight == 0 and self.queue_depth() == 0

    # -- submission -----------------------------------------------------------
    def submit(self, key: str, kind: str, work: Callable[[], Generator], *,
               card: Optional[CardRef] = None, priority: int = BACKGROUND,
               proc: Any = None) -> FleetTicket:
        """Enqueue one keyed unit of work; returns its ticket immediately."""
        if priority not in self._queues:
            raise ValueError(f"unknown priority {priority!r}")
        done = Event(self.sim, name=f"{self.name}:{key}.done")
        ticket = FleetTicket(key, kind, work, card, priority, proc,
                             self.sim.now, done)
        self.tickets.append(ticket)
        self._queues[priority].append(ticket)
        self.m_submitted.inc()
        self._prio_submitted[priority].inc()
        self.sim.trace.emit(
            "fleet.submit", key=key, kind=kind,
            card=card.key if card else None,
            priority=PRIORITY_NAMES[priority],
        )
        self._pump()
        return ticket

    # -- the standard operation submitters ------------------------------------
    def submit_checkpoint(self, key: str, snap: Any, *,
                          card: Optional[CardRef] = None) -> FleetTicket:
        """A full non-terminating checkpoint cycle on a prepared handle."""
        from .ops import capture_sequence

        def work():
            return (yield from capture_sequence(snap))

        return self.submit(key, "checkpoint", work, card=card,
                           priority=BACKGROUND, proc=snap.coiproc.host_proc)

    def submit_swap_cycle(self, key: str, coiproc: Any, engine: Any,
                          snapshot_path: str, *,
                          card: Optional[CardRef] = None) -> FleetTicket:
        """Swap a process out to ``snapshot_path`` and straight back in on
        ``engine`` — the scheduler's make-room/reclaim pair as one keyed
        fleet operation."""
        from .usecases import snapify_swapin, snapify_swapout

        host_proc = coiproc.host_proc

        def work():
            snap = yield from snapify_swapout(snapshot_path, coiproc)
            yield from snapify_swapin(snap, engine, host_proc)
            return snap.op.result

        return self.submit(key, "swap", work, card=card, priority=SWAP,
                           proc=host_proc)

    def submit_migrate(self, key: str, coiproc: Any, engine_to: Any,
                       snapshot_path: str, *,
                       card: Optional[CardRef] = None) -> FleetTicket:
        """Migrate a process to ``engine_to`` (maintenance priority: this
        is how a card is evacuated)."""
        from .usecases import snapify_migration

        def work():
            _new, (_swapout, swapin) = yield from snapify_migration(
                coiproc, engine_to, snapshot_path
            )
            return swapin

        return self.submit(key, "migrate", work, card=card,
                           priority=MAINTENANCE, proc=coiproc.host_proc)

    def submit_reseed(self, key: str, coiproc: Any, host_os: Any,
                      engine_to: Any, snapshot_path: str, *,
                      card: Optional[CardRef] = None,
                      integrate: Optional[Callable[[Any], None]] = None) -> FleetTicket:
        """Clone a healthy replica onto a spare card (maintenance priority:
        this is how a degraded replication team regains redundancy).

        Unlike :meth:`submit_migrate` the source keeps running: the work is
        a non-destructive checkpoint of ``coiproc`` followed by a restart
        of the snapshot on ``engine_to``. ``integrate`` (if given) runs
        synchronously after the restart returns — before the restored main
        thread is scheduled — so the caller can stamp replica identity and
        join team membership without racing the clone.
        """
        from .api import snapify_t
        from .usecases import checkpoint_offload_app, restart_offload_app

        def work():
            snap = snapify_t(snapshot_path=snapshot_path, coiproc=coiproc)
            yield from checkpoint_offload_app(snap)
            result = yield from restart_offload_app(
                host_os, snapshot_path, engine_to
            )
            if integrate is not None:
                integrate(result)
            return result.result

        return self.submit(key, "reseed", work, card=card,
                           priority=MAINTENANCE, proc=coiproc.host_proc)

    # -- the memory tier ------------------------------------------------------
    def memory_tier(self):
        """The fleet's in-memory snapshot tier, with every card registered
        under its :class:`CardRef` key (created on first use)."""
        from ..snapify_io.memtier import MemoryTier

        tier = MemoryTier.of(self.sim)
        if self.fleet is not None:
            tier.register_fleet(self.fleet)
        return tier

    def submit_demotion(self, key: str, path: str, host_os: Any) -> FleetTicket:
        """Demote an incremental chain to the host NFS export as a
        BACKGROUND ticket — durability insurance off the capture critical
        path. The work retries over transient NFS outages; an export that
        stays down fails the ticket and the chain remains memory-resident."""
        tier = self.memory_tier()

        def work():
            return (yield from tier.demote_with_retry(path, host_os))

        return self.submit(key, "demote", work, priority=BACKGROUND)

    # -- collection -----------------------------------------------------------
    def collect(self, tickets: Sequence[FleetTicket]):
        """Sub-generator: wait until every ticket is terminal; returns the
        keyed :class:`FleetResult`, failures included (its
        :meth:`~FleetResult.raise_on_error` aggregates them).  Duplicate
        keys in one batch are a caller bug and rejected up front (the
        result map would silently drop outcomes)."""
        keyed: Dict[str, FleetTicket] = {}
        for t in tickets:
            if t.key in keyed:
                raise SnapifyError(f"duplicate fleet key in batch: {t.key!r}")
            keyed[t.key] = t
        pending = [t.done for t in tickets if not t.done.triggered]
        if pending:
            yield self.sim.all_of(pending)
        return FleetResult(keyed)

    # -- admission ------------------------------------------------------------
    def _card_free(self, card: Optional[CardRef]) -> bool:
        if card is None:
            return True
        return self._per_card.get(card.key, 0) < self.per_card_limit

    def _pop_admissible(self) -> Optional[FleetTicket]:
        """Highest-priority FIFO ticket whose card has a free slot.  A
        request for a saturated card does not block requests for idle cards
        queued behind it (head-of-line blocking would idle the fleet)."""
        for priority in PRIORITIES:
            queue = self._queues[priority]
            for i, ticket in enumerate(queue):
                if self._card_free(ticket.card):
                    del queue[i]
                    return ticket
        return None

    def _pump(self) -> None:
        """Admit as many queued tickets as the caps allow right now."""
        while self.in_flight < self.max_in_flight:
            ticket = self._pop_admissible()
            if ticket is None:
                return
            self._admit(ticket)

    def _admit(self, ticket: FleetTicket) -> None:
        self.in_flight += 1
        self.hwm_in_flight = max(self.hwm_in_flight, self.in_flight)
        if ticket.card is not None:
            key = ticket.card.key
            held = self._per_card.get(key, 0) + 1
            self._per_card[key] = held
            if held > self.hwm_per_card.get(key, 0):
                self.hwm_per_card[key] = held
            if key not in self._card_gauges:
                self._card_gauges.add(key)
                self._registry.gauge(
                    f"{self.name}.card.{key}.in_flight",
                    lambda k=key: self._per_card.get(k, 0),
                )
        ticket.state = RUNNING
        ticket.admitted = self.sim.now
        self._wait_hist[ticket.priority].observe(ticket.queue_wait)
        self.sim.trace.emit("fleet.admit", key=ticket.key, kind=ticket.kind,
                            card=ticket.card.key if ticket.card else None,
                            in_flight=self.in_flight)
        runner = self._run(ticket)
        try:
            if ticket.proc is not None:
                ticket.proc.spawn_thread(
                    runner, name=f"fleet:{ticket.key}", daemon=True
                )
            else:
                self.sim.spawn(runner, name=f"fleet:{ticket.key}", daemon=True)
        except Exception as exc:
            # The owning process died between submit and admission: the
            # runner never started, so settle the ticket here.
            runner.close()
            self._finish(ticket, error=f"{type(exc).__name__}: {exc}")

    def _run(self, ticket: FleetTicket):
        try:
            result = yield from ticket.work()
        except SnapifyError as exc:
            self._finish(ticket, error=str(exc))
            return
        except Exception as exc:  # infrastructure death (card/endpoint gone)
            self._finish(ticket, error=f"{type(exc).__name__}: {exc}")
            return
        except BaseException as exc:  # teardown (thread killed / interrupted)
            self._finish(ticket, error=f"{type(exc).__name__}: {exc}")
            raise
        self._finish(ticket, result=result)

    def _finish(self, ticket: FleetTicket, *, result: Any = None,
                error: Optional[str] = None) -> None:
        if ticket.state in TICKET_TERMINAL:
            return
        ticket.state = FAILED if error is not None else DONE
        ticket.result = result
        ticket.error = error
        ticket.finished = self.sim.now
        if isinstance(result, OperationResult):
            op = OperationManager.of(self.sim).operations.get(result.op_id)
            if op is not None:
                op.prov.fleet_key = ticket.key
        self.in_flight -= 1
        if ticket.card is not None:
            key = ticket.card.key
            held = self._per_card.get(key, 1) - 1
            if held:
                self._per_card[key] = held
            else:
                self._per_card.pop(key, None)
        (self.m_failed if error is not None else self.m_completed).inc()
        if ticket.card is not None:
            outcome = "failed" if error is not None else "completed"
            self._registry.counter(
                f"{self.name}.card.{ticket.card.key}.{outcome}"
            ).inc()
        if ticket.service_time is not None:
            self._service_hist.observe(ticket.service_time)
        self.sim.trace.emit("fleet.finish", key=ticket.key, kind=ticket.kind,
                            card=ticket.card.key if ticket.card else None,
                            state=ticket.state, error=error)
        ticket.done.succeed(ticket)
        self._pump()

    # -- health sweeps ---------------------------------------------------------
    def health_sweep(self):
        """Sub-generator: probe every card of the fleet at MAINTENANCE
        priority (bounded by the same admission machinery as real
        operations) and return the :class:`HealthReport`.

        A probe is a small timed RAM-FS write on the card — it rides the
        card's memory bandwidth, so a card saturated by captures shows up
        as a straggler, and a dead card (failed, link down, OS gone) fails
        the probe outright.
        """
        if self.fleet is None:
            raise SnapifyError("health_sweep needs a fleet")
        cards = self.fleet.cards()
        sweep_id = next(self._probe_ids)
        tickets = [
            self.submit(f"probe{sweep_id}:{card.key}", "probe",
                        self._probe_work(card), card=card,
                        priority=MAINTENANCE)
            for card in cards
        ]
        result = yield from self.collect(tickets)
        entries = []
        for card, ticket in zip(cards, tickets):
            if ticket.ok:
                entries.append(ticket.result)
            else:
                entries.append(CardHealth(card=card.key, ok=False,
                                          latency=None, error=ticket.error))
        report = self.last_health = HealthReport(entries, when=self.sim.now)
        self.sim.trace.emit("fleet.health", cards=len(entries),
                            failed=len(report.failed),
                            stragglers=len(report.stragglers()))
        return report

    def _probe_work(self, card: CardRef):
        def work():
            phi = self.fleet.phi(card)
            if phi.failed:
                raise SnapifyError(f"{card.key}: card failed")
            if phi.link_down:
                raise SnapifyError(f"{card.key}: PCIe link down")
            if phi.os is None:
                raise SnapifyError(f"{card.key}: no OS booted")
            path = f"/.fleet/probe{next(self._probe_ids)}"
            t0 = self.sim.now
            yield from phi.os.fs.write(path, PROBE_BYTES)
            yield from phi.os.fs.read(path)
            phi.os.fs.unlink(path)
            return CardHealth(card=card.key, ok=True, latency=self.sim.now - t0)

        return work

    def describe(self) -> Dict[str, Any]:
        """JSON-safe manager snapshot (CLI, repro artifacts)."""
        return {
            "name": self.name,
            "max_in_flight": self.max_in_flight,
            "per_card_limit": self.per_card_limit,
            "submitted": len(self.tickets),
            "queue_depth": self.queue_depth(),
            "in_flight": self.in_flight,
            "hwm_in_flight": self.hwm_in_flight,
            "hwm_per_card": dict(self.hwm_per_card),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<FleetManager {self.name} in_flight={self.in_flight}/"
                f"{self.max_in_flight} queued={self.queue_depth()}>")


# ---------------------------------------------------------------------------
# The standard mixed-load sweep (CLI, fuzz scenario, tier-1 tests, README demo)
# ---------------------------------------------------------------------------


#: Offload processes :func:`fleet_sweep` spawns on every card.
SWEEP_OPS_PER_CARD = 4
#: Size of each swept process's one COI buffer.
SWEEP_BUFFER_BYTES = 4 * 1024 * 1024


def fleet_sweep(fleet: Any, manager: FleetManager):
    """Sub-generator: spawn :data:`SWEEP_OPS_PER_CARD` offload processes on
    every card and drive a mixed checkpoint/swap/migrate load through
    ``manager``.

    Per card, slot ``s`` runs: a swap cycle when ``s % 3 == 1``, a migration
    to the node's next card when ``s % 3 == 2`` (a checkpoint when the node
    has only one card), and a background checkpoint otherwise.  Returns the
    collected :class:`FleetResult` over all ``cards * SWEEP_OPS_PER_CARD``
    keyed operations.
    """
    from ..coi import OffloadBinary, OffloadFunction
    from ..testbed import offload_process
    from .api import snapify_t

    def _dead_card(card: CardRef, exc: Exception):
        # A card that dies while its processes are being spawned still owes
        # the batch a keyed outcome: route the spawn failure through the
        # normal ticket machinery as an immediately-failing work item.
        def work():
            raise SnapifyError(f"{card.key}: spawn failed: {exc}")
            yield  # pragma: no cover - makes this a generator

        return work

    cards = fleet.cards()
    prepared: List[Tuple[CardRef, int, Any]] = []
    for card in cards:
        server = fleet.server(card.node)
        for slot in range(SWEEP_OPS_PER_CARD):
            binary = OffloadBinary(
                name=f"fleet_{card.node}_{card.device}_{slot}.so",
                image_size=8 * 1024 * 1024,
                functions={"step": OffloadFunction("step", duration=0.05)},
            )
            try:
                coiproc, _ = yield from offload_process(
                    server, f"fl_{card.key}_s{slot}", binary,
                    device=card.device, buffers=[(SWEEP_BUFFER_BYTES, slot + 1)],
                )
            except Exception as exc:
                prepared.append((card, slot, _dead_card(card, exc)))
            else:
                prepared.append((card, slot, coiproc))

    tickets: List[FleetTicket] = []
    for card, slot, coiproc in prepared:
        if callable(coiproc):  # spawn failed; coiproc is the failing work
            tickets.append(manager.submit(
                f"{card.key}/op{slot}", "checkpoint", coiproc, card=card,
            ))
            continue
        key = f"{card.key}/op{slot}"
        server = fleet.server(card.node)
        n_devices = len(server.node.phis)
        shape = slot % 3
        if shape == 1:
            tickets.append(manager.submit_swap_cycle(
                key, coiproc, server.engine(card.device),
                f"/fleet/swap_{card.key}_{slot}", card=card,
            ))
        elif shape == 2 and n_devices > 1:
            target = (card.device + 1) % n_devices
            tickets.append(manager.submit_migrate(
                key, coiproc, server.engine(target),
                f"/fleet/mig_{card.key}_{slot}", card=card,
            ))
        else:
            snap = snapify_t(snapshot_path=f"/fleet/ckpt_{card.key}_{slot}",
                             coiproc=coiproc)
            tickets.append(manager.submit_checkpoint(key, snap, card=card))

    result = yield from manager.collect(tickets)
    return result
