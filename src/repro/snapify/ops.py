"""Correlated Snapify operations: the control plane's state machine.

One *operation* is one end-to-end Snapify action (a checkpoint, a swap-out,
a restore…) identified by a per-simulator correlation id. The id rides in
every SERVICE message the host sends, the daemon keys its active-request
table by ``(pid, op_id)``, and the offload agent echoes the id back in its
replies — so many operations can be in flight across endpoints and cards,
and every completion is checked against the operation that asked for it.
Before this layer, ``snapify_capture``'s completion waiter did a bare
``daemon_ep.recv()`` and took whichever ``CAPTURE_COMPLETE`` came first.

State machine (one way, monotone)::

    REQUESTED -> PAUSING -> DRAINED -> CAPTURING -> TRANSFERRING -> DONE
         \\           \\          \\          \\             \\       -> FAILED
                                              RETRYING <-> TRANSFERRING

* REQUESTED    — the operation exists; nothing is on the wire yet.
* PAUSING      — pause handshake + channel drain in progress.
* DRAINED      — every channel is quiesced; local store saved.
* CAPTURING    — the capture request is issued; BLCR streams the context
                 through Snapify-IO.
* TRANSFERRING — the snapshot data is durable (capture completion seen),
                 or — for restore-type operations — streaming back to the
                 card. The operation is finishing (resume handshake).
* RETRYING     — a transfer attempt hit a transient fault and is backing
                 off before re-entering TRANSFERRING (the only cycle the
                 machine permits; see ``docs/architecture.md``, "Transfer
                 resilience").
* DONE/FAILED  — terminal; :class:`OperationResult` is frozen.

Restore-type operations take the short path REQUESTED -> TRANSFERRING ->
DONE; a pause/resume cycle with no capture completes straight from
DRAINED. Every transition is kept in the operation's ``history`` (and
emitted as an ``op.state`` trace record), so phase breakdowns are read
from operation state rather than per-call boilerplate
(:func:`repro.obs.phases.operation_table`).

Replies are keyed, not demultiplexed. Each offload process is driven over
its own daemon endpoint (``COIEngine.process_create`` and
``snapify_restore`` each open one), so ``recv_reply`` is one
``yield ep.recv()`` plus a check of the id the reply names. A reply naming
another issued operation, or none, is a :class:`SnapifyError`, never a
completion taken by the wrong operation.

Each operation ends in one frozen, typed :class:`OperationResult`. Beyond
its state and phase timings, every field comes from the operation's
:class:`Provenance` record, which the API calls, the use cases, the agent
reply, the transfer manager and the fleet fill in. It is the single
source of the Figure 10/11 numbers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..sim.events import Event
from .monitor import SnapifyError

# -- states -----------------------------------------------------------------

REQUESTED = "REQUESTED"
PAUSING = "PAUSING"
DRAINED = "DRAINED"
CAPTURING = "CAPTURING"
#: Incremental captures split CAPTURING into two sub-states: the dirty-page
#: harvest (CAPTURING_DELTA) and the partner replication of the resulting
#: delta image through the in-memory tier (REPLICATING).
CAPTURING_DELTA = "CAPTURING_DELTA"
REPLICATING = "REPLICATING"
TRANSFERRING = "TRANSFERRING"
RETRYING = "RETRYING"
DONE = "DONE"
FAILED = "FAILED"

STATES = (REQUESTED, PAUSING, DRAINED, CAPTURING, CAPTURING_DELTA,
          REPLICATING, TRANSFERRING, RETRYING, DONE, FAILED)
TERMINAL = (DONE, FAILED)

#: Legal *working* transitions; DONE and FAILED are reachable from any
#: non-terminal state (via complete()/fail()), never left. TRANSFERRING and
#: RETRYING form the one permitted cycle: a transfer attempt that hits a
#: transient fault backs off in RETRYING, then re-enters TRANSFERRING for
#: the next attempt (possibly on a degraded channel — see
#: :class:`repro.snapify_io.resilience.TransferManager`).
_NEXT = {
    REQUESTED: (PAUSING, TRANSFERRING),
    PAUSING: (DRAINED,),
    DRAINED: (CAPTURING, CAPTURING_DELTA),
    CAPTURING: (TRANSFERRING,),
    # Incremental path: delta harvest, then partner replication, then the
    # (cheap) finish. A delta capture with no live partner candidate skips
    # straight to TRANSFERRING.
    CAPTURING_DELTA: (REPLICATING, TRANSFERRING),
    REPLICATING: (TRANSFERRING,),
    TRANSFERRING: (RETRYING,),
    RETRYING: (TRANSFERRING,),
    DONE: (),
    FAILED: (),
}


@dataclass
class Provenance:
    """What an operation moved and measured, recorded while it runs."""

    #: Transfer channel that carried the snapshot ("snapifyio" | "memtier"
    #: | "nfs" | "scp"); None for operations that moved no snapshot.
    channel: Optional[str] = None
    #: Transfer attempts across all channels (1 = clean first try).
    attempts: int = 1
    #: Bytes an incremental capture shipped (dirty pages + metadata); None
    #: for a full capture.
    delta_bytes: Optional[int] = None
    #: Checkpoint-plugin images the captured context carried.
    plugin_images: int = 0
    #: The FleetManager ticket key that issued the operation (None for
    #: directly-driven operations).
    fleet_key: Optional[str] = None
    #: Offload image size: what this operation's capture wrote (the full
    #: logical image, for a delta capture) or what its restore read back.
    image_bytes: Optional[int] = None
    #: Local-store bytes this operation's own pause saved.
    localstore_bytes: Optional[int] = None
    #: Checkpoint only: the host-side BLCR snapshot's time and size.
    host_snapshot_s: Optional[float] = None
    host_snapshot_bytes: Optional[int] = None
    #: Restart only: time to restore the host process, which precedes the
    #: operation (it starts once there is a host process to attach to).
    host_restart_s: Optional[float] = None
    #: Restore-type only: time to rebuild the offload process, without the
    #: resume that follows.
    restore_s: Optional[float] = None


@dataclass(frozen=True)
class OperationResult:
    """The typed outcome of one operation."""

    op_id: int
    kind: str
    pid: int
    snapshot_path: Optional[str]
    ok: bool
    state: str  # DONE | FAILED
    error: Optional[str]
    failed_phase: Optional[str]
    started: float
    finished: float
    #: Simulated seconds spent in each non-terminal state, keyed by state.
    phases: Dict[str, float]
    #: See :class:`Provenance`.
    channel: Optional[str] = None
    attempts: int = 1
    #: Card the operation targeted, in fleet key form ("n0.mic1") — the
    #: same key :class:`repro.snapify.fleet.CardRef` uses, so per-card
    #: grouping never silently drops samples. None when no card is known.
    card: Optional[str] = None
    #: See :class:`Provenance`; None for a full capture.
    delta_bytes: Optional[int] = None
    #: See :class:`Provenance`: ``image_bytes`` is None unless the
    #: operation captured or restored, ``localstore_bytes`` unless it paused.
    image_bytes: Optional[int] = None
    localstore_bytes: Optional[int] = None
    #: Bytes that actually crossed a channel or tier: ``delta_bytes`` for
    #: an incremental capture, else ``image_bytes``. Throughput math must
    #: use this, never assume the full image moved.
    shipped_bytes: Optional[int] = None
    #: See :class:`Provenance`; None for kinds that have no such step.
    host_snapshot_s: Optional[float] = None
    host_snapshot_bytes: Optional[int] = None
    host_restart_s: Optional[float] = None
    restore_s: Optional[float] = None

    @property
    def elapsed(self) -> float:
        return self.finished - self.started


class SnapifyOperation:
    """One in-flight Snapify action, addressable by its correlation id."""

    __slots__ = ("op_id", "kind", "manager", "snap", "pid", "card", "span_id",
                 "state", "error", "failed_phase", "terminate", "history",
                 "done", "result", "prov")

    def __init__(self, manager: "OperationManager", op_id: int, kind: str,
                 snap: Any = None, span_id: int = 0):
        self.manager = manager
        self.op_id = op_id
        self.kind = kind
        self.snap = snap
        self.pid = self._pid_of(snap)
        self.card = self._card_of(snap)
        self.span_id = span_id
        self.state = REQUESTED
        self.error: Optional[str] = None
        self.failed_phase: Optional[str] = None
        #: capture-only: the offload process terminates once captured, so no
        #: resume will close this operation — snapify_wait does.
        self.terminate = False
        self.history: List[Tuple[str, float]] = [(REQUESTED, manager.sim.now)]
        self.done = Event(manager.sim, name=f"op{op_id}:{kind}.done")
        self.result: Optional[OperationResult] = None
        self.prov = Provenance()

    @staticmethod
    def _pid_of(snap: Any) -> int:
        coiproc = getattr(snap, "coiproc", None)
        if coiproc is None or coiproc.offload_proc is None:
            return -1
        return coiproc.offload_proc.pid

    @staticmethod
    def _card_of(snap: Any) -> Optional[str]:
        """The key ("n0.mic1") of the targeted card, if any: read from the
        COI engine's Phi, so every path tags operations alike."""
        coiproc = getattr(snap, "coiproc", None)
        phi = getattr(getattr(coiproc, "engine", None), "phi", None)
        return None if phi is None else phi.key

    # -- state inspection ---------------------------------------------------
    @property
    def is_terminal(self) -> bool:
        return self.state in TERMINAL

    def abandoned(self) -> bool:
        """The processes this operation was driving are gone: nobody is left
        to finish it, so a non-terminal state is expected, not a leak."""
        coiproc = getattr(self.snap, "coiproc", None) if self.snap is not None else None
        if coiproc is None:
            return False
        host = coiproc.host_proc
        if host is None or not host.alive:
            return True
        return coiproc.dead or not coiproc.offload_proc.alive

    def phases(self) -> Dict[str, float]:
        """Simulated seconds spent in each state the operation has left."""
        out: Dict[str, float] = {}
        for (state, t0), (_, t1) in zip(self.history, self.history[1:]):
            out[state.lower()] = out.get(state.lower(), 0.0) + (t1 - t0)
        return out

    def describe(self) -> Dict[str, Any]:
        """JSON-safe summary (repro artifacts, RunResult, CLI tables)."""
        out = {
            "op": self.op_id,
            "kind": self.kind,
            "pid": self.pid,
            "card": self.card,
            "state": self.state,
            "error": self.error,
            "failed_phase": self.failed_phase,
            "started": self.history[0][1],
        }
        if self.prov.fleet_key is not None:
            out["fleet_key"] = self.prov.fleet_key
        if self.prov.plugin_images:
            out["plugin_images"] = self.prov.plugin_images
        return out

    # -- transitions --------------------------------------------------------
    def transition(self, state: str, **fields: Any) -> None:
        """Advance to a working state; raises on an illegal move."""
        if state not in _NEXT[self.state]:
            raise SnapifyError(
                f"illegal operation transition {self.state} -> {state}",
                op_id=self.op_id, phase=self.state,
            )
        self.state = state
        sim = self.manager.sim
        self.history.append((state, sim.now))
        sim.trace.emit("op.state", op=self.op_id, kind=self.kind,
                       state=state, pid=self.pid, card=self.card, **fields)

    def complete(self) -> OperationResult:
        """Close the operation successfully (idempotent once DONE)."""
        if self.state == DONE:
            return self.result
        if self.state == FAILED:
            raise SnapifyError("complete() on a failed operation",
                               op_id=self.op_id, phase=FAILED)
        return self._finalize(DONE)

    def fail(self, reason: str, *, phase: Optional[str] = None) -> OperationResult:
        """Close the operation as failed (idempotent once terminal: error
        paths legitimately report twice — waiter thread, then the waiter
        API call)."""
        if self.is_terminal:
            return self.result
        self.failed_phase = phase or self.state
        self.error = reason
        return self._finalize(FAILED)

    def fail_with(self, message: str) -> SnapifyError:
        """Mark the operation failed and build the exception to raise."""
        self.fail(message)
        return SnapifyError(message, op_id=self.op_id, phase=self.failed_phase)

    def _finalize(self, state: str) -> OperationResult:
        sim = self.manager.sim
        self.state = state
        self.history.append((state, sim.now))
        prov = self.prov
        self.result = OperationResult(
            op_id=self.op_id,
            kind=self.kind,
            pid=self.pid,
            snapshot_path=getattr(self.snap, "snapshot_path", None),
            ok=state == DONE,
            state=state,
            error=self.error,
            failed_phase=self.failed_phase,
            started=self.history[0][1],
            finished=sim.now,
            phases=self.phases(),
            channel=prov.channel,
            attempts=prov.attempts,
            card=self.card,
            delta_bytes=prov.delta_bytes,
            image_bytes=prov.image_bytes,
            localstore_bytes=prov.localstore_bytes,
            shipped_bytes=(prov.image_bytes if prov.delta_bytes is None
                           else prov.delta_bytes),
            host_snapshot_s=prov.host_snapshot_s,
            host_snapshot_bytes=prov.host_snapshot_bytes,
            host_restart_s=prov.host_restart_s,
            restore_s=prov.restore_s,
        )
        sim.trace.emit("op.end", op=self.op_id, kind=self.kind, state=state,
                       pid=self.pid, card=self.card, error=self.error)
        self.manager.finished.append(self)
        if not self.done.triggered:
            self.done.succeed(self.result)
        return self.result

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SnapifyOperation {self.op_id} {self.kind} {self.state}>"


class OperationManager:
    """Issues, tracks, and waits on operations for one simulator."""

    _ATTR = "snapify_operations"

    def __init__(self, sim: Any):
        self.sim = sim
        self._ids = itertools.count(1)
        #: every operation ever issued, by id (results included).
        self.operations: Dict[int, SnapifyOperation] = {}
        #: every terminal operation, in completion order.
        self.finished: List[SnapifyOperation] = []
        #: (source, destination hardware, bytes) of each file the transfer
        #: chain delivered: a ledger of the ``card_bytes_cross_links`` oracle.
        self.deliveries: List[Tuple[Any, Any, int]] = []

    @classmethod
    def of(cls, sim: Any) -> "OperationManager":
        mgr = getattr(sim, cls._ATTR, None)
        if mgr is None:
            mgr = cls(sim)
            setattr(sim, cls._ATTR, mgr)
        return mgr

    @classmethod
    def peek(cls, sim: Any) -> Optional["OperationManager"]:
        """The simulator's manager if one exists — oracles must not create one."""
        return getattr(sim, cls._ATTR, None)

    # -- issuing ------------------------------------------------------------
    def begin(self, kind: str, snap: Any = None, *,
              span: Any = None) -> SnapifyOperation:
        """Open an operation for ``snap``. If the handle already carries a
        live operation (a use case opened it before delegating to the API,
        or an MPI coordinator pre-issued it), that one is adopted instead of
        being orphaned."""
        existing = getattr(snap, "op", None) if snap is not None else None
        if existing is not None and not existing.is_terminal:
            if span is not None and not existing.span_id:
                existing.span_id = getattr(span, "span_id", span) or 0
            return existing
        span_id = getattr(span, "span_id", span) or 0
        op = SnapifyOperation(self, next(self._ids), kind, snap=snap,
                              span_id=int(span_id))
        self.operations[op.op_id] = op
        if snap is not None:
            snap.op = op
        self.sim.trace.emit("op.begin", op=op.op_id, kind=kind, pid=op.pid,
                            card=op.card, span=op.span_id)
        return op

    def adopt(self, snap: Any, kind: str = "api") -> SnapifyOperation:
        """The operation an API call should account to: the handle's live
        one, else a fresh auto-issued one (raw five-call API users)."""
        op = getattr(snap, "op", None)
        if op is not None and not op.is_terminal:
            if op.pid < 0:
                op.pid = SnapifyOperation._pid_of(snap)
            if op.card is None:
                op.card = SnapifyOperation._card_of(snap)
            return op
        return self.begin(kind, snap)

    # -- bookkeeping ---------------------------------------------------------
    def non_terminal(self) -> List[SnapifyOperation]:
        return [op for op in self.operations.values() if not op.is_terminal]

    # -- waiting -------------------------------------------------------------
    def wait_all(self, ops: Sequence[SnapifyOperation]):
        """Sub-generator: block until every operation is terminal. Returns
        the results in input order, or raises one :class:`SnapifyError`
        that names every failed operation."""
        pending = [op.done for op in ops if not op.done.triggered]
        if pending:
            yield self.sim.all_of(pending)
        failed = [op for op in ops if op.state == FAILED]
        if failed:
            first = failed[0]
            detail = "; ".join(
                f"op {op.op_id} ({op.kind}) failed in {op.failed_phase}: {op.error}"
                for op in failed
            )
            raise SnapifyError(f"{len(failed)} operation(s) failed: {detail}",
                               op_id=first.op_id, phase=first.failed_phase)
        return [op.result for op in ops]

    # -- replies -------------------------------------------------------------
    def recv_reply(self, op: SnapifyOperation, ep: Any):
        """Sub-generator: the next daemon reply on ``ep``, which must name ``op``.

        Each offload process is driven over its own daemon endpoint, so one
        operation receives on it at a time. A reply naming another
        operation is a misaddressed completion: it raises
        :class:`SnapifyError` naming both ids rather than being taken as
        ``op``'s. A reply naming no operation this manager issued raises
        too.
        """
        msg = yield ep.recv()
        target = msg.get("op_id") if isinstance(msg, dict) else None
        if target == op.op_id:
            return msg
        if target not in self.operations:
            raise SnapifyError(f"daemon reply names no known operation: {msg!r}",
                               op_id=op.op_id, phase=op.state)
        raise SnapifyError(f"misaddressed daemon reply: names op {target}, not "
                           f"op {op.op_id}: {msg!r}", op_id=op.op_id, phase=op.state)


# ---------------------------------------------------------------------------
# Composed sequences
# ---------------------------------------------------------------------------


def capture_sequence(snap: Any, *, terminate: bool = False, between: Any = None):
    """Sub-generator: one full operation — pause, capture, (``between``),
    wait, and (unless terminated) resume. The canonical five-call order
    every §5 use case shares; ``between`` is an optional sub-generator run
    while the offload capture is in flight (the checkpoint use case
    snapshots the host process there)."""
    from .api import snapify_capture, snapify_pause, snapify_resume, snapify_wait

    yield from snapify_pause(snap)
    yield from snapify_capture(snap, terminate=terminate)
    if between is not None:
        yield from between
    yield from snapify_wait(snap)
    if not terminate:
        yield from snapify_resume(snap)
    return snap.op.result if snap.op is not None else None


def snapshot_application(snaps: Sequence[Any]):
    """Sub-generator: checkpoint *all* offload processes of an application
    concurrently (§4: pause/capture/resume applies to every offload process
    of the application in parallel; §5's MPI use case rides this).

    ``snaps`` holds one prepared ``snapify_t`` per offload process — they
    may live on different cards and even belong to different host
    processes. Each is driven through the full cycle on its own host-side
    thread; the call returns when every operation is terminal. Returns the
    :class:`OperationResult` list in input order, or raises one
    :class:`SnapifyError` naming every failed operation.
    """
    if not snaps:
        return []
    sim = snaps[0].coiproc.sim
    mgr = OperationManager.of(sim)
    ops = [mgr.begin("checkpoint", snap) for snap in snaps]

    def _worker(snap, op):
        try:
            yield from capture_sequence(snap)
        except SnapifyError:
            pass  # the operation is marked FAILED; wait_all reports it
        except Exception as exc:  # infrastructure death (card/endpoint gone)
            if not op.is_terminal:
                op.fail(f"{type(exc).__name__}: {exc}")
            raise

    for snap, op in zip(snaps, ops):
        snap.coiproc.host_proc.spawn_thread(
            _worker(snap, op), name=f"snapify-op{op.op_id}", daemon=True
        )
    return (yield from mgr.wait_all(ops))
