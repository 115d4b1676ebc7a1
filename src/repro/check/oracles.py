"""Invariant oracles: conservation properties checked after every run.

Each oracle takes a quiesced :class:`~repro.testbed.XeonPhiServer` and
returns a list of :class:`Violation` (empty = invariant holds). Oracles are
deliberately *schedule-independent*: they assert what must be true at
quiescence no matter which legal interleaving got us there, which is what
makes them usable as fuzzing oracles (see :mod:`repro.check.fuzz`).

The properties come straight from the protocol's obligations (PAPER.md
§4–5): pause drains without losing messages, capture stages through
Snapify-IO and releases the staging copy, resume un-pauses everything it
paused, and the per-daemon monitor thread exists only while requests are
in flight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List

if TYPE_CHECKING:  # pragma: no cover
    from ..testbed import XeonPhiServer


@dataclass(frozen=True)
class Violation:
    """One broken invariant: which oracle, and what it saw."""

    oracle: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.oracle}] {self.detail}"


def _pools(server: "XeonPhiServer"):
    """(label, memory, os) for the host and every card."""
    yield "host", server.node.memory, server.host_os
    for i, phi in enumerate(server.node.phis):
        yield f"mic{i}", phi.memory, phi.os


def memory_accounting(server: "XeonPhiServer") -> List[Violation]:
    """Every memory pool balances: used == sum of categories, within capacity.

    Catches double-frees, leaked allocations, and accounting drift between a
    pool's total and its per-category ledger.
    """
    out: List[Violation] = []
    for label, mem, _os in _pools(server):
        cat_sum = sum(mem.by_category.values())
        if mem.used != cat_sum:
            out.append(Violation(
                "memory_accounting",
                f"{label}: used={mem.used} but categories sum to {cat_sum} "
                f"({dict(mem.by_category)})",
            ))
        if not 0 <= mem.used <= mem.capacity:
            out.append(Violation(
                "memory_accounting",
                f"{label}: used={mem.used} outside [0, capacity={mem.capacity}]",
            ))
        for cat, held in mem.by_category.items():
            if held < 0:
                out.append(Violation(
                    "memory_accounting", f"{label}: category {cat!r} negative ({held})"
                ))
    return out


def process_accounting(server: "XeonPhiServer") -> List[Violation]:
    """The 'process' category equals the live processes' mapped footprint.

    A mismatch means a terminated process leaked regions (or a live one was
    double-unmapped) — exactly the bug class restore/kill races produce.
    """
    out: List[Violation] = []
    for label, mem, os in _pools(server):
        live = sum(p.memory_footprint for p in os.processes.values())
        held = mem.by_category.get("process", 0)
        if live != held:
            out.append(Violation(
                "process_accounting",
                f"{label}: live process footprint {live} != accounted {held}",
            ))
    return out


def ramfs_accounting(server: "XeonPhiServer") -> List[Violation]:
    """Card RAM-FS bytes equal the 'ramfs' memory category.

    The RAM disk's files ARE physical card memory (§3), so the file system's
    ledger and the memory pool's ledger must agree byte-for-byte.
    """
    out: List[Violation] = []
    for i, phi in enumerate(server.node.phis):
        fs_bytes = phi.os.fs.total_bytes()
        held = phi.memory.by_category.get("ramfs", 0)
        if fs_bytes != held:
            out.append(Violation(
                "ramfs_accounting",
                f"mic{i}: ramfs files hold {fs_bytes} bytes but memory "
                f"accounts {held}",
            ))
    return out


def scif_conservation(server: "XeonPhiServer") -> List[Violation]:
    """No SCIF message is lost or duplicated across drain.

    For every *open* endpoint at quiescence: nothing may still be queued
    (pause promised to drain), and the receive channel's counters must
    balance — sent == received + queued. Closed endpoints are exempt (the
    network tracks open ones only): close() legally discards in-flight
    messages (the peer observes ``ConnectionReset`` instead).
    """
    from ..scif.endpoint import ScifNetwork

    out: List[Violation] = []
    net = ScifNetwork.of(server.node)
    for ep in net.endpoints.values():
        rx = ep._rx
        if rx.sent_count != rx.received_count + rx.qsize:
            out.append(Violation(
                "scif_conservation",
                f"ep{ep.eid}: sent={rx.sent_count} != "
                f"received={rx.received_count} + queued={rx.qsize}",
            ))
        if ep.pending:
            out.append(Violation(
                "scif_conservation",
                f"ep{ep.eid}: {ep.pending} message(s) still queued at quiescence",
            ))
    return out


def nothing_left_paused(server: "XeonPhiServer") -> List[Violation]:
    """Every paused process was resumed or deliberately killed.

    Walks all live processes on every OS: a host-side :class:`COIProcess`
    handle or a card-side :class:`CardRuntime` still flagged ``paused`` at
    quiescence means a pause leaked past its resume.
    """
    out: List[Violation] = []
    for label, _mem, os in _pools(server):
        for proc in os.processes.values():
            handle = proc.runtime.get("coi_handle")
            if handle is not None and getattr(handle, "paused", False):
                out.append(Violation(
                    "nothing_left_paused",
                    f"{label}: host handle for {proc.name!r} still paused",
                ))
            card = proc.runtime.get("coi")
            if card is not None and getattr(card, "paused", False):
                out.append(Violation(
                    "nothing_left_paused",
                    f"{label}: card runtime of {proc.name!r} still paused",
                ))
    return out


def monitor_quiescent(server: "XeonPhiServer") -> List[Violation]:
    """Monitor threads exist only while requests are active (§4.2).

    At quiescence every live COI daemon must have an empty active-request
    table and no monitor thread. Daemons whose process died (card failure)
    are exempt — their flags died with them.
    """
    out: List[Violation] = []
    for daemon in server.coi_daemons:
        proc = daemon.proc
        if proc is None or proc.pid not in proc.os.processes:
            continue  # daemon died with its card
        svc = daemon.runtime.get("snapify")
        if svc is None:
            continue
        if svc.active:
            out.append(Violation(
                "monitor_quiescent",
                f"{proc.name}: {len(svc.active)} request(s) still active "
                f"(pids {sorted(svc.active)})",
            ))
        if svc.monitor_running:
            out.append(Violation(
                "monitor_quiescent", f"{proc.name}: monitor thread still running"
            ))
    return out


def staging_drained(server: "XeonPhiServer") -> List[Violation]:
    """Snapify-IO staging copies on the cards are released.

    Local stores staged on a card's RAM-FS (migration's direct path) are
    transient: once the buffers are recreated on the target, the staging
    file must be unlinked or it permanently eats card memory. Host-side
    snapshot files are durable by design and not checked here.
    """
    out: List[Violation] = []
    for i, phi in enumerate(server.node.phis):
        stale = [p for p in phi.os.fs.listdir("/") if p.endswith("/localstore")]
        if stale:
            out.append(Violation(
                "staging_drained", f"mic{i}: staging file(s) not released: {stale}"
            ))
    return out


def no_crashed_threads(server: "XeonPhiServer") -> List[Violation]:
    """No simulated thread died with an unhandled infrastructure exception.

    Threads may legitimately die with the *documented* error surface —
    teardown (:class:`ThreadKilled`), torn-down waits (:class:`Interrupted`),
    and the protocol's own error types (SCIF resets, Snapify/COI failure
    reports) that fault injection is supposed to produce. Anything else — a
    KeyError in a protocol handler, a failed internal invariant — is a bug
    the schedule exposed.
    """
    from ..coi.services import COIError
    from ..scif.endpoint import ScifError
    from ..sim.errors import Interrupted, ThreadKilled
    from ..snapify.monitor import SnapifyError

    benign = (ThreadKilled, Interrupted, ScifError, SnapifyError, COIError)
    out: List[Violation] = []
    for thread, exc in server.sim.failed_threads():
        if isinstance(exc, benign):
            continue
        out.append(Violation(
            "no_crashed_threads", f"thread {thread.name!r} died: {exc!r}"
        ))
    return out


def operations_quiescent(server: "XeonPhiServer") -> List[Violation]:
    """No Snapify operation is left in a non-terminal state at quiescence.

    Every operation the :class:`~repro.snapify.ops.OperationManager` issued
    must have reached DONE or FAILED — a REQUESTED/PAUSING/CAPTURING/…
    operation at quiescence is a leaked or wedged control-plane action.
    Operations whose processes are gone (the card died under them, or the
    run deliberately killed the app) are exempt: nobody is left to finish
    them, and the failure surfaced through the protocol's error path.
    """
    from ..snapify.ops import OperationManager

    mgr = OperationManager.peek(server.sim)
    if mgr is None:
        return []
    out: List[Violation] = []
    for op in mgr.non_terminal():
        if op.abandoned():
            continue
        out.append(Violation(
            "operations_quiescent",
            f"op {op.op_id} ({op.kind}, pid {op.pid}) left in {op.state}",
        ))
    return out


def no_truncated_commits(server: "XeonPhiServer") -> List[Violation]:
    """No committed remote file is shorter than its committed length.

    The Snapify-IO write protocol's core durability promise: a ``done/ok``
    reply means every byte of the stream is applied. Each daemon's commit
    ledger records the byte total it confirmed; a committed file that is
    missing or shorter than its ledger entry means a truncated stream was
    acknowledged — the exact bug the abort/resume protocol exists to
    prevent. (A *longer* file is fine — a later transfer may legitimately
    overwrite the path — and a *missing* file is fine too: consumers
    legitimately unlink committed staging files once applied, e.g.
    migration's card-to-card local store after restore.)
    """
    out: List[Violation] = []
    for label, _mem, os in _pools(server):
        daemon = getattr(os, "snapify_io_daemon", None)
        if daemon is None:
            continue
        for path, total in daemon.commits.items():
            if not os.fs.exists(path):
                continue  # consumed and unlinked: not a truncation
            if os.fs.stat(path).size < total:
                out.append(Violation(
                    "no_truncated_commits",
                    f"{label}: {path} committed at {total} bytes but holds "
                    f"{os.fs.stat(path).size}",
                ))
    return out


def staging_buffers_released(server: "XeonPhiServer") -> List[Violation]:
    """RDMA staging-buffer accounting matches the open registration windows.

    Every byte in a pool's ``rdma_staging`` category must be backed by a
    window on a currently *open* SCIF endpoint of that OS (the network
    tracks open ones only) — a mismatch means a connection reset (or daemon
    crash) leaked a registration, the bug class transient link flaps
    expose. A closed endpoint still holding windows shows up here too: its
    bytes are accounted but no open endpoint registers them.
    """
    from ..scif.endpoint import ScifNetwork

    out: List[Violation] = []
    net = ScifNetwork.of(server.node)
    for label, mem, os in _pools(server):
        held = mem.by_category.get("rdma_staging", 0)
        windows = 0
        for ep in net.endpoints.values():
            if ep.os is os:
                windows += sum(ep.windows.values())
        if held != windows:
            out.append(Violation(
                "staging_buffers_released",
                f"{label}: rdma_staging accounts {held} bytes but open "
                f"endpoints register {windows}",
            ))
    return out


def retry_accounting(server: "XeonPhiServer") -> List[Violation]:
    """Retry/fallback counters are consistent with the injected faults.

    A run in which the fault injector executed nothing must not have
    retried, degraded, or aborted anything: nonzero resilience counters on
    a clean run mean the transfer path is failing (and recovering) on its
    own, which would silently mask real regressions.
    """
    from ..obs.registry import MetricsRegistry

    injector = getattr(server, "fault_injector", None)
    if injector is None or injector.injected:
        return []  # faults ran (or no injector attached): retries are legal
    counters = MetricsRegistry.of(server.sim).snapshot()["counters"]
    out: List[Violation] = []
    for name in ("snapifyio.retries", "snapifyio.fallbacks", "snapifyio.aborts"):
        n = counters.get(name, 0)
        if n:
            out.append(Violation(
                "retry_accounting",
                f"{name} = {n} with no injected faults",
            ))
    return out


def fleet_admission_caps(server: "XeonPhiServer") -> List[Violation]:
    """No fleet manager ever exceeded its admission caps.

    The high-water marks are recorded at admission time, so they witness
    every interleaving the run explored: a mark above the configured cap
    means the admission controller let an operation through that it was
    supposed to queue.
    """
    from ..snapify.fleet import FleetManager

    out: List[Violation] = []
    for mgr in FleetManager.all_of(server.sim):
        if mgr.hwm_in_flight > mgr.max_in_flight:
            out.append(Violation(
                "fleet_admission_caps",
                f"{mgr.name}: in-flight high-water {mgr.hwm_in_flight} "
                f"exceeds cap {mgr.max_in_flight}",
            ))
        for card, hwm in sorted(mgr.hwm_per_card.items()):
            if hwm > mgr.per_card_limit:
                out.append(Violation(
                    "fleet_admission_caps",
                    f"{mgr.name}: card {card} high-water {hwm} exceeds "
                    f"per-card limit {mgr.per_card_limit}",
                ))
    return out


def fleet_no_starvation(server: "XeonPhiServer") -> List[Violation]:
    """Every submitted fleet ticket reached a terminal state.

    A ticket still QUEUED or RUNNING at quiescence was starved (the pump
    never admitted it) or leaked (its runner died without finishing it) —
    either way the caller's ``collect`` would have hung on it.
    """
    from ..snapify.fleet import TICKET_TERMINAL, FleetManager

    out: List[Violation] = []
    for mgr in FleetManager.all_of(server.sim):
        for t in mgr.tickets:
            if t.state not in TICKET_TERMINAL:
                card = t.card.key if t.card is not None else "-"
                out.append(Violation(
                    "fleet_no_starvation",
                    f"{mgr.name}: ticket {t.key!r} ({t.kind}, {card}) "
                    f"left {t.state}",
                ))
    return out


def fleet_quiescent(server: "XeonPhiServer") -> List[Violation]:
    """Fleet managers hold no work at quiescence.

    At the end of a run every queue must be empty and the in-flight count
    zero; a nonzero count with no runnable work is a leaked admission slot
    (``_finish`` never ran), which would silently shrink the fleet's
    effective concurrency.
    """
    from ..snapify.fleet import FleetManager

    out: List[Violation] = []
    for mgr in FleetManager.all_of(server.sim):
        if mgr.in_flight:
            out.append(Violation(
                "fleet_quiescent",
                f"{mgr.name}: {mgr.in_flight} operation(s) still in flight",
            ))
        depth = mgr.queue_depth()
        if depth:
            out.append(Violation(
                "fleet_quiescent",
                f"{mgr.name}: {depth} operation(s) still queued",
            ))
    return out


def delta_chain_reconstructs(server: "XeonPhiServer") -> List[Violation]:
    """Every incremental chain in the memory tier reassembles cleanly.

    The incremental format's core correctness promise: the base image plus
    the recorded deltas, replayed in epoch order with CRC and fingerprint
    verification on, must reproduce exactly the state a full capture at the
    same epoch would have recorded. A chain that fails to reassemble —
    CRC mismatch, epoch gap, fingerprint divergence — means a capture
    committed a link it cannot stand behind, no matter which interleaving
    (partner deaths, demotion races) produced it.
    """
    from ..blcr import ChainError, reassemble
    from ..snapify_io.memtier import MemoryTier

    tier = MemoryTier.peek(server.sim)
    if tier is None:
        return []
    out: List[Violation] = []
    for path, entry in sorted(tier.chains.items()):
        if not entry.links:
            continue
        try:
            reassemble(entry.images, verify=True)
        except ChainError as exc:
            out.append(Violation(
                "delta_chain_reconstructs",
                f"{path}: {len(entry.links)}-link chain does not "
                f"reassemble: {exc}",
            ))
    return out


def partner_copy_consistent(server: "XeonPhiServer") -> List[Violation]:
    """The tier's replication ledger never counts a torn partner image.

    Two obligations, audited per chain link and per card:

    * a link marked ``replicated`` whose partner copies are all torn has
      committed a half-streamed image as its surviving replica — the exact
      corruption the mid-copy health checks exist to prevent (losing an
      intact replica later to a card *death* is legal; tearing one during
      the stream and still counting it is not);
    * each registered card's ``snap_tier`` memory category must equal the
      bytes of the intact copies the ledger homes there — drift means a
      torn/released copy kept its allocation or an intact one was freed.
    """
    from ..snapify_io.memtier import TIER_CATEGORY, MemoryTier

    tier = MemoryTier.peek(server.sim)
    if tier is None:
        return []
    out: List[Violation] = []
    ledger_bytes: dict = {}
    for path, entry in sorted(tier.chains.items()):
        for link in entry.links:
            for copy in link.copies:
                if copy.intact:
                    ledger_bytes[copy.home] = (
                        ledger_bytes.get(copy.home, 0) + copy.nbytes
                    )
            partners = [c for c in link.copies if c.role == "partner"]
            torn = [c for c in partners if c.torn]
            if link.replicated and torn and not any(
                c.intact or c.lost or c.released for c in partners
            ):
                out.append(Violation(
                    "partner_copy_consistent",
                    f"{path}: epoch {link.image.epoch} marked replicated "
                    f"but its only partner image(s) are torn "
                    f"({[c.home for c in torn]})",
                ))
    for key in tier._order:
        mem = tier._mem_of(key)
        if mem is None:
            continue
        held = mem.by_category.get(TIER_CATEGORY, 0)
        expected = ledger_bytes.get(key, 0)
        if held != expected:
            out.append(Violation(
                "partner_copy_consistent",
                f"{key}: snap_tier accounts {held} bytes but the ledger's "
                f"intact copies there total {expected}",
            ))
    return out


def socket_listeners_owned(server: "XeonPhiServer") -> List[Violation]:
    """Every bound socket name with an owner belongs to a *live* process.

    A listener re-bound by the socket checkpoint plugin (or bound by any
    process) is released when its owner terminates; a name still bound to a
    dead owner at quiescence is a namespace leak — the next restore of the
    same image would fail its re-bind with a spurious collision.
    """
    out: List[Violation] = []
    for label, _mem, os in _pools(server):
        for address, listener in os.sockets.bound.items():
            owner = listener.owner
            if owner is not None and not owner.alive:
                out.append(Violation(
                    "socket_listeners_owned",
                    f"{label}: listener {address!r} still bound to dead "
                    f"process {owner.name}",
                ))
    return out


def restored_files_consistent(server: "XeonPhiServer") -> List[Violation]:
    """Plugin-restored RAM-FS descriptors point at real files, mid-range.

    For every live process the ramfs_files plugin restored descriptors for:
    the backing file must exist on that OS's file system and the read cursor
    must sit within the record stream — a cursor past the end means the
    restore resurrected an offset the content does not cover.
    """
    out: List[Violation] = []
    for label, _mem, os in _pools(server):
        for proc in os.processes.values():
            for path, fd in proc.runtime.get("restored_files", {}).items():
                if not os.fs.exists(path):
                    out.append(Violation(
                        "restored_files_consistent",
                        f"{label}/{proc.name}: restored fd for missing file "
                        f"{path!r}",
                    ))
                if fd._read_cursor > len(fd._records):
                    out.append(Violation(
                        "restored_files_consistent",
                        f"{label}/{proc.name}: {path!r} cursor "
                        f"{fd._read_cursor} beyond {len(fd._records)} records",
                    ))
    return out


def pending_signals_blocked(server: "XeonPhiServer") -> List[Violation]:
    """A queued signal at quiescence is only legal while it is blocked.

    Signals queue exclusively because the mask blocks them; once unblocked
    they must have been delivered. A pending signal whose number is not in
    the blocked mask at quiescence is a lost delivery — exactly the bug the
    signals checkpoint plugin exists to prevent across restore.
    """
    out: List[Violation] = []
    for label, _mem, os in _pools(server):
        for proc in os.processes.values():
            stuck = [s for s in proc.pending_signals
                     if s not in proc.blocked_signals]
            if stuck:
                out.append(Violation(
                    "pending_signals_blocked",
                    f"{label}/{proc.name}: signal(s) {stuck} pending but not "
                    "blocked — delivery was lost",
                ))
    return out


def rdma_windows_replayed(server: "XeonPhiServer") -> List[Violation]:
    """No live restored process still carries un-replayed RDMA window specs.

    The RDMA plugin stashes captured windows in
    ``runtime["rdma_restore_pending"]`` for the program to re-register via
    :func:`~repro.blcr.plugins.replay_rdma_windows`. Specs still pending at
    quiescence mean the restored process ran to quiescence without its
    windows — its RDMA operations were silently un-backed.
    """
    out: List[Violation] = []
    for label, _mem, os in _pools(server):
        for proc in os.processes.values():
            pending = proc.runtime.get("rdma_restore_pending")
            if pending:
                out.append(Violation(
                    "rdma_windows_replayed",
                    f"{label}/{proc.name}: {len(pending)} RDMA window(s) "
                    "captured but never re-registered after restore",
                ))
    return out


def team_membership_consistent(server: "XeonPhiServer") -> List[Violation]:
    """Replication-team membership is coherent at quiescence.

    For every :class:`~repro.apps.nas_mz.MZJob` on the simulator: no
    replica is both live and dropped, live replicas of one team occupy
    pairwise-distinct cards (the anti-affinity contract), every dropped
    replica's host process is fenced (not still running), and every
    replica the job ever placed is accounted for as live or dropped.
    """
    from ..apps.nas_mz import MZJob

    out: List[Violation] = []
    for job in MZJob.all_of(server.sim):
        comm = job.comm
        for team in range(job.n_ranks):
            live = comm.live[team]
            dropped = comm.dropped[team]
            overlap = [r for r in live if r in dropped]
            if overlap:
                out.append(Violation(
                    "team_membership_consistent",
                    f"{job.name} team {team}: replicas {overlap} both live "
                    f"and dropped",
                ))
            cards = [job.placement[(team, r)].key for r in live
                     if (team, r) in job.placement]
            if len(set(cards)) != len(cards):
                out.append(Violation(
                    "team_membership_consistent",
                    f"{job.name} team {team}: live replicas share a card "
                    f"({cards})",
                ))
            for r in dropped:
                rep = job.replicas.get((team, r))
                proc = rep.host_proc if rep is not None else None
                if proc is not None and proc.alive:
                    out.append(Violation(
                        "team_membership_consistent",
                        f"{job.name} team {team}: dropped replica {r} was "
                        "never fenced (host process still alive)",
                    ))
            placed = sorted(r for (t, r) in job.replicas if t == team)
            tracked = sorted(live + dropped)
            if placed != tracked:
                out.append(Violation(
                    "team_membership_consistent",
                    f"{job.name} team {team}: replicas {placed} placed but "
                    f"{tracked} tracked as live+dropped",
                ))
    return out


def no_duplicate_delivery(server: "XeonPhiServer") -> List[Violation]:
    """Message accounting balances and nothing was delivered twice.

    Replica layer: every ``(replica, message)`` pair in a
    :class:`~repro.mpi.replication.TeamComm` was delivered exactly once
    (fan-out duplicates suppressed, re-seed backfill included) and the copy
    ledger balances. Substrate layer: every
    :class:`~repro.mpi.runtime.MPIComm` conserves messages —
    ``sent == consumed + pending`` — with duplicate re-sends counted in
    ``messages_dropped``, never in ``messages_sent``.
    """
    from ..mpi.replication import TeamComm
    from ..mpi.runtime import MPIComm

    out: List[Violation] = []
    for comm in TeamComm.all_of(server.sim):
        dups = {k: n for k, n in comm.delivered_counts.items() if n != 1}
        if dups:
            sample = next(iter(dups.items()))
            out.append(Violation(
                "no_duplicate_delivery",
                f"{len(dups)} replica message(s) delivered != 1 time "
                f"(e.g. {sample[0]} x{sample[1]})",
            ))
        if not comm.ledger_balanced():
            out.append(Violation(
                "no_duplicate_delivery",
                f"team copy ledger unbalanced: sent={comm.copies_sent} "
                f"backfilled={comm.backfilled} delivered={comm.delivered} "
                f"suppressed={comm.suppressed} "
                f"dropped_dead={comm.dropped_dead}",
            ))
    for mpi in MPIComm.all_of(server.sim):
        expect = mpi.messages_consumed + mpi.pending_messages()
        if mpi.messages_sent != expect:
            out.append(Violation(
                "no_duplicate_delivery",
                f"MPI message conservation broken: sent="
                f"{mpi.messages_sent} != consumed({mpi.messages_consumed}) "
                f"+ pending({mpi.pending_messages()}) "
                f"[dropped={mpi.messages_dropped}]",
            ))
    return out


def card_bytes_cross_links(server: "XeonPhiServer") -> List[Violation]:
    """Every byte a ledger says left or entered a card crossed its PCIe link.

    Per card, the bytes the ledgers say left it are at most what its d2h
    link carried, and those that entered it at most what its h2d link
    carried. The ledgers: memory-tier streams, transfer-chain deliveries,
    DONE full captures (the image leaves its card) and restores (it enters
    the card restored onto, unless the tier served it). An incremental
    capture's ``shipped_bytes`` is a local commit, not link traffic. The
    same-OS copies at ``osim/sockets.py:71`` and ``snapify_io/daemon.py:240``
    cross no link and charge ``sleep(nbytes / bw)`` by design; any other
    byte between OSes charged that way is a bypass.
    """
    from ..snapify.ops import DONE, OperationManager
    from ..snapify_io.memtier import MemoryTier

    node = server.node
    tier = MemoryTier.peek(server.sim)
    mgr = OperationManager.peek(server.sim)
    ledger = list(mgr.deliveries) if mgr else []  # (source, destination, bytes)
    if tier is not None:
        ledger += [(tier._cards[a], tier._cards[b], n) for (a, b), n in tier.streamed.items()]
    for op in mgr.finished if mgr else ():
        r = op.result
        if r.state != DONE or r.delta_bytes is not None or not r.image_bytes:
            continue
        engine = op.snap.coiproc.engine
        if engine.node is not node:
            continue
        if r.restore_s is None:
            # A migration's handle already points at the target engine: a
            # capture goes by the card key it recorded.
            src = next((p for p in node.phis if p.key == r.card), None)
            ledger.append((src, None, r.image_bytes))
        elif tier is None or tier.lookup(r.snapshot_path) is None:
            ledger.append((None, engine.phi, r.image_bytes))
    out: List[Violation] = []
    for phi in node.phis:
        for end, link, verb in ((0, phi.link.d2h, "left"), (1, phi.link.h2d, "entered")):
            want = sum(entry[2] for entry in ledger if entry[end] is phi)
            if want > link.bytes_transferred:
                out.append(Violation(
                    "card_bytes_cross_links",
                    f"{phi.key}: ledgers say {want} bytes {verb} the card but "
                    f"{link.name} carried {link.bytes_transferred}",
                ))
    return out


#: All oracles, in check order. ``check_all`` runs every one of these.
ORACLES: List[Callable[["XeonPhiServer"], List[Violation]]] = [
    memory_accounting,
    process_accounting,
    ramfs_accounting,
    scif_conservation,
    nothing_left_paused,
    monitor_quiescent,
    staging_drained,
    operations_quiescent,
    no_truncated_commits,
    staging_buffers_released,
    retry_accounting,
    fleet_admission_caps,
    fleet_no_starvation,
    fleet_quiescent,
    delta_chain_reconstructs,
    partner_copy_consistent,
    card_bytes_cross_links,
    socket_listeners_owned,
    restored_files_consistent,
    pending_signals_blocked,
    rdma_windows_replayed,
    team_membership_consistent,
    no_duplicate_delivery,
    no_crashed_threads,
]


def check_all(server: "XeonPhiServer") -> List[Violation]:
    """Run every oracle against a quiesced server; return all violations."""
    out: List[Violation] = []
    for oracle in ORACLES:
        out.extend(oracle(server))
    return out
