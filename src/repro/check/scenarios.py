"""Fuzzable end-to-end scenarios: one (seed, faults) triple → one run.

Each scenario boots a fresh :class:`~repro.testbed.XeonPhiServer` on a
kernel seeded with ``schedule_seed``, drives one of the paper's use cases
(checkpoint, restart-after-failure, swap cycle, migration, a checkpoint
with a card failure at a chosen phase boundary, or one of the §1
consumers built on them), quiesces, and checks every invariant oracle.
The whole run is a pure function of ``(scenario, seed, faults)`` — the
replay guarantee the fuzzer's repro artifacts rely on.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..apps import OffloadApplication, expected_checksum
from ..blcr.plugins import PluginError
from ..coi import OffloadBinary, OffloadFunction
from ..coi.services import COIError
from ..hw import MB
from ..hw.memory import MemoryExhausted
from ..scif.endpoint import ConnectionReset, ScifError
from ..sched.faults import FaultInjector
from ..sim.errors import DeadlockError, Interrupted, ThreadKilled
from ..sim.kernel import Simulator
from ..snapify import (
    MIGRATE,
    SWAP_IN,
    SWAP_OUT,
    SnapifyError,
    checkpoint_offload_app,
    restart_offload_app,
    snapify_capture,
    snapify_command,
    snapify_pause,
    snapify_resume,
    snapify_t,
    snapify_wait,
    snapshot_application,
)
from ..snapify.ops import OperationManager
from ..snapify.usecases import transfer_snapshot
from ..snapify_io import RetryPolicy, SnapifyIOError, TransferFailed, TransferManager
from ..testbed import XeonPhiServer, offload_app
from .oracles import Violation, check_all

#: Errors a faulted run may legitimately surface instead of completing:
#: the protocol's documented failure reports, not crashes.
CLEAN_ERRORS = (SnapifyError, COIError, ScifError, ConnectionReset, MemoryExhausted,
                SnapifyIOError, PluginError)

#: Phase boundaries at which ``checkpoint_fault`` injects the card failure.
CHECKPOINT_FAULT_PHASES = (
    "before_pause",
    "after_pause",
    "after_capture",
    "after_wait",
    "after_resume",
)

#: Fault shapes the ``transfer_fault`` scenario is fuzzed under (the mode
#: rides in the name, ``transfer_fault:<mode>``; the fuzzer derives the
#: per-seed fault plan from it — see :func:`repro.check.fuzz.default_faults`).
TRANSFER_FAULT_MODES = ("flap", "daemon_crash", "fallback", "cascade")

#: Fault shapes of the ``incremental:<mode>`` sweep: clean delta chains, the
#: partner card dying mid-replication, and the NFS demotion path flapping
#: under the background demotion ticket.
INCREMENTAL_MODES = ("delta_chain", "partner_loss", "demotion_race")

#: Resource classes of the ``plugin:<mode>`` sweep — one checkpoint-content
#: plugin each (sockets, RAM-FS file offsets, pending signals, RDMA
#: windows). Plugin scenarios run fault-free: the adversary is the seed's
#: restore-target parity (same card vs cross card), not an injected fault.
PLUGIN_MODES = ("socket_restore", "ramfs_offsets", "signal_pending",
                "rdma_migrate")

#: Fault shapes of the ``replication:<mode>`` sweep — a replica's card
#: dying under its team (the survivors must carry the run), both replicas
#: of one team dying (the wipe must surface as a clean ReplicationError),
#: and a replica lagging behind a flapped link (heartbeat drop + re-seed
#: through the fleet's MAINTENANCE lane).
REPLICATION_MODES = ("card_failure", "team_wipe", "lagging_replica")

#: Paper §1's consumers of Snapify: the swap scheduler, the proactive
#: migrator and the resilient runner.
SCHED_MODES = ("swap", "proactive", "resilient")

ITERATIONS = 8
_GRACE = 5.0  # simulated seconds a faulted app may take to surface its error


@dataclass
class RunResult:
    """Everything the fuzzer (and a repro artifact) needs about one run."""

    scenario: str
    seed: Optional[int]
    faults: Tuple[Dict[str, Any], ...]
    ok: bool
    outcome: str  # completed | faulted | clean_error | deadlock | crash
    violations: List[Violation] = field(default_factory=list)
    error: Optional[str] = None
    error_type: Optional[str] = None
    final_time: float = 0.0
    waitfor: List[Dict[str, Any]] = field(default_factory=list)
    trace_digest: Optional[str] = None
    #: describe() dicts of every Snapify operation the run issued — failed
    #: seeds name the operation (id, kind, pid, state) that wedged.
    operations: List[Dict[str, Any]] = field(default_factory=list)
    #: The run's kernel (its ``trace``, operation and fleet managers and
    #: metrics registry); :func:`~repro.check.fuzz.fuzz` drops it so a
    #: sweep holds no simulators. A failing run's post-mortem bundle is
    #: read from a traced replay — see
    #: :meth:`repro.check.artifact.ReproArtifact.from_result`.
    sim: Optional[Simulator] = field(default=None, repr=False, compare=False)

    def summary(self) -> str:
        verdict = "ok" if self.ok else "FAIL"
        bits = [f"{self.scenario} seed={self.seed}: {verdict} ({self.outcome})"]
        if self.error:
            bits.append(f"error={self.error}")
        bits.extend(str(v) for v in self.violations)
        if not self.ok:
            stuck = [o for o in self.operations
                     if o.get("state") not in ("DONE", "FAILED")]
            bits.extend(
                f"op {o['op']} ({o['kind']}, pid {o['pid']}) in {o['state']}"
                for o in stuck
            )
        return "; ".join(bits)


def _mk_app(server: XeonPhiServer, name: str = "fuzzapp") -> OffloadApplication:
    return offload_app(server, "MC", iterations=ITERATIONS, name=name)


def _verify_violation(app: OffloadApplication) -> List[Violation]:
    if app.verify():
        return []
    return [Violation("result_correct", "application checksum mismatch after run")]


# ---------------------------------------------------------------------------
# Scenario drivers — generators run in the simulated host context.
# Each returns {"outcome": ..., "violations": [...]}.
# ---------------------------------------------------------------------------


def _checkpoint(server, app, injector, phase, faults):
    sim = server.sim
    yield from app.launch()
    yield sim.sleep(0.3)
    snap = snapify_t("/fz/ckpt", coiproc=app.coiproc)
    yield from checkpoint_offload_app(snap)
    yield app.host_proc.main_thread.done
    return {"outcome": "completed", "violations": _verify_violation(app)}


def _restart(server, app, injector, phase, faults):
    sim = server.sim
    yield from app.launch()
    yield sim.sleep(0.3)
    snap = snapify_t("/fz/restart", coiproc=app.coiproc)
    yield from checkpoint_offload_app(snap)
    yield sim.sleep(0.05)
    app.host_proc.terminate(code=1)
    yield sim.sleep(0.05)
    result = yield from restart_offload_app(server.host_os, "/fz/restart", server.engine(0))
    yield result.host_proc.main_thread.done
    store = result.host_proc.store
    bad = []
    if store.get("checksum") != expected_checksum(ITERATIONS):
        bad.append(Violation("result_correct", "restarted run produced wrong checksum"))
    return {"outcome": "completed", "violations": bad}


def _swap(server, app, injector, phase, faults):
    sim = server.sim
    yield from app.launch()
    yield sim.sleep(0.3)
    yield snapify_command(app.host_proc, SWAP_OUT, snapshot_path="/fz/swap")
    yield sim.sleep(0.2)
    yield snapify_command(app.host_proc, SWAP_IN, engine=server.engine(0))
    yield app.host_proc.main_thread.done
    return {"outcome": "completed", "violations": _verify_violation(app)}


def _migrate(server, app, injector, phase, faults):
    sim = server.sim
    yield from app.launch()
    yield sim.sleep(0.3)
    yield snapify_command(app.host_proc, MIGRATE, engine=server.engine(1))
    yield app.host_proc.main_thread.done
    return {"outcome": "completed", "violations": _verify_violation(app)}


def _checkpoint_fault(server, app, injector, phase, faults):
    """Checkpoint with the card failing at one exact phase boundary.

    The acceptable outcomes are: the checkpoint completes anyway (failure
    landed after the critical phase), or a clean documented error surfaces
    and the app is deliberately killed. A hang or an internal crash is a
    protocol bug.
    """
    if phase not in CHECKPOINT_FAULT_PHASES:
        raise ValueError(f"unknown checkpoint_fault phase {phase!r}")
    sim = server.sim
    yield from app.launch()
    yield sim.sleep(0.3)
    phi = server.node.phis[0]
    snap = snapify_t("/fz/ckptf", coiproc=app.coiproc)
    try:
        if phase == "before_pause":
            injector.fail_now(phi)
        yield from snapify_pause(snap)
        if phase == "after_pause":
            injector.fail_now(phi)
        yield from snapify_capture(snap, terminate=False)
        if phase == "after_capture":
            injector.fail_now(phi)
        yield from snapify_wait(snap)
        if phase == "after_wait":
            injector.fail_now(phi)
        yield from snapify_resume(snap)
        if phase == "after_resume":
            injector.fail_now(phi)
    except CLEAN_ERRORS as exc:
        app.host_proc.terminate(code=1)
        return {"outcome": "faulted", "error": repr(exc), "violations": []}
    # The protocol survived the injection point; the app itself may still
    # have lost its card. Give it a bounded grace window, then kill.
    try:
        yield sim.any_of([app.host_proc.main_thread.done, sim.timeout(_GRACE)])
    except (CLEAN_ERRORS + (Interrupted, ThreadKilled)) as exc:
        app.host_proc.terminate(code=1)
        return {"outcome": "faulted", "error": repr(exc), "violations": []}
    if not app.host_proc.main_thread.done.triggered:
        app.host_proc.terminate(code=1)
        return {"outcome": "faulted", "error": "app stalled after fault; killed",
                "violations": []}
    if app.host_proc.main_thread.done.ok:
        return {"outcome": "completed", "violations": _verify_violation(app)}
    return {"outcome": "faulted", "violations": []}


def _dual_binary(dev: int) -> OffloadBinary:
    return OffloadBinary(
        name=f"dual{dev}.so",
        image_size=8 * MB,
        functions={"step": OffloadFunction("step", duration=0.05)},
    )


def _concurrent_checkpoint(server, app, injector, phase, faults):
    """Concurrent snapshots: two applications on card 0 plus one host
    process with an offload process on *each* card, all captured at once
    through :func:`snapshot_application`. Exercises the operation-id demux
    (several completions interleave on shared infrastructure) and the
    ``(pid, op_id)``-keyed daemon table across two daemons."""
    sim = server.sim
    app2 = _mk_app(server, name="fuzzapp2")
    yield from app.launch()
    yield from app2.launch()
    host = yield from server.host_os.spawn_process("dualcard", image_size=4 * MB)
    dual = []
    for dev in (0, 1):
        cp = yield from server.engine(dev).process_create(host, _dual_binary(dev))
        buf = yield from cp.buffer_create(8 * MB)
        yield from cp.buffer_write(buf, payload=dev + 1)
        dual.append(cp)
    yield sim.sleep(0.3)

    snaps = [
        snapify_t("/fz/cc/app1", coiproc=app.coiproc),
        snapify_t("/fz/cc/app2", coiproc=app2.coiproc),
        snapify_t("/fz/cc/dual0", coiproc=dual[0]),
        snapify_t("/fz/cc/dual1", coiproc=dual[1]),
    ]
    expected_pids = [s.coiproc.offload_proc.pid for s in snaps]
    results = yield from snapshot_application(snaps)

    bad: List[Violation] = []
    for snap, pid, res in zip(snaps, expected_pids, results):
        if res is None or not res.ok:
            bad.append(Violation(
                "concurrent_checkpoint",
                f"{snap.snapshot_path}: operation failed ({res and res.error})",
            ))
            continue
        if res.pid != pid:
            bad.append(Violation(
                "concurrent_checkpoint",
                f"{snap.snapshot_path}: result attributed to pid {res.pid}, "
                f"expected {pid}",
            ))
        if not res.image_bytes:
            bad.append(Violation(
                "concurrent_checkpoint",
                f"{snap.snapshot_path}: empty offload snapshot",
            ))
    yield app.host_proc.main_thread.done
    yield app2.host_proc.main_thread.done
    bad.extend(_verify_violation(app))
    bad.extend(_verify_violation(app2))
    return {"outcome": "completed", "violations": bad}


def _transfer_fault(server, app, injector, phase, faults):
    """A snapshot transfer off card 0 under transient transfer-path faults.

    ``phase`` carries the fault mode (see :data:`TRANSFER_FAULT_MODES`);
    the actual fault plan arrives through ``faults`` and was scheduled by
    :func:`run_scenario` before we start. Acceptable outcomes: the transfer
    completes (possibly on a degraded channel — the destination file must
    then be exact), or the whole chain is down and the operation fails
    *cleanly* with the aggregated cause chain and no committed destination
    file. Anything else — a truncated commit, a wedged operation, a leaked
    staging buffer — the oracles catch.
    """
    sim = server.sim
    src_os = server.phi_os(0)
    src_path, dst_path = "/fz/tf_src", "/fz/tf_dst"
    size = 256 * MB
    yield from src_os.fs.write(src_path, size, payload=["tf-payload"])
    yield sim.sleep(0.3)
    # Tuned so the fuzzer's fault windows land inside the retry horizon:
    # 4 attempts spanning roughly a second of backoff per channel.
    policy = RetryPolicy(attempts=4, base_delay=0.04, multiplier=2.0,
                         max_delay=0.5, jitter=0.25)
    bad: List[Violation] = []
    try:
        result = yield from transfer_snapshot(
            src_os, 0, src_path, dst_path, kind="transfer-fault",
            manager=TransferManager(policy=policy),
        )
    except TransferFailed as exc:
        # The whole chain was down: the failure must be loud AND the
        # destination must never have been committed.
        host_daemon = getattr(server.host_os, "snapify_io_daemon", None)
        if host_daemon is not None and dst_path in host_daemon.commits:
            bad.append(Violation(
                "transfer_fault",
                f"{dst_path} committed although the transfer failed: {exc}",
            ))
        return {"outcome": "faulted", "error": repr(exc), "violations": bad}
    if not server.host_os.fs.exists(dst_path):
        bad.append(Violation("transfer_fault", f"{dst_path} missing after ok"))
    elif server.host_os.fs.stat(dst_path).size != size:
        bad.append(Violation(
            "transfer_fault",
            f"{dst_path} holds {server.host_os.fs.stat(dst_path).size} bytes, "
            f"expected {size}",
        ))
    elif server.host_os.fs.stat(dst_path).payload != ["tf-payload"]:
        bad.append(Violation(
            "transfer_fault", f"{dst_path} payload corrupted across transfer"
        ))
    if result.channel == "snapifyio":
        host_daemon = getattr(server.host_os, "snapify_io_daemon", None)
        if host_daemon is None or host_daemon.commits.get(dst_path) != size:
            bad.append(Violation(
                "transfer_fault",
                f"{dst_path}: snapifyio success without a matching commit entry",
            ))
    return {"outcome": "completed", "violations": bad}


def _fleet(server, app, injector, phase, faults):
    """The fleet control plane under mixed load, optionally losing cards.

    Boots a named fleet topology (``phase``, default ``rack8``) on the
    scenario's kernel, schedules any ``fleet_card_failure`` faults against
    its cards, then drives health sweep → :func:`~repro.snapify.fleet.
    fleet_sweep` → health sweep through one :class:`~repro.snapify.fleet.
    FleetManager`. On a clean run every ticket must land DONE; once the
    injector has actually killed a card, per-ticket failures are the
    *expected* partial-failure surface and only the invariants (admission
    caps, no starvation, quiescence — plus every per-server oracle over the
    whole fleet) decide the verdict.
    """
    from ..snapify.fleet import DONE, FleetManager, fleet_sweep
    from ..testbed import XeonPhiFleet

    sim = server.sim
    fleet = XeonPhiFleet(phase or "rack8", sim=sim)
    manager = FleetManager(fleet, max_in_flight=8, per_card_limit=2)
    cards = fleet.cards()
    for f in faults:
        if f.get("kind") != "fleet_card_failure":
            continue
        card = cards[f["card"] % len(cards)]
        injector.schedule_card_failure(fleet.phi(card), at=sim.now + f["at"])

    yield from manager.health_sweep()  # baseline probe of every card
    result = yield from fleet_sweep(fleet, manager)
    after = yield from manager.health_sweep()

    bad: List[Violation] = []
    if not injector.injected:
        for key, t in result.tickets.items():
            if t.state != DONE:
                bad.append(Violation(
                    "fleet_result",
                    f"{key} failed with no injected fault: {t.error}",
                ))
        if after.failed:
            bad.append(Violation(
                "fleet_result",
                f"health sweep reports dead cards on a clean run: "
                f"{[h.card for h in after.failed]}",
            ))
    return {
        "outcome": "completed" if result.ok else "faulted",
        "violations": bad,
        "servers": fleet.servers,
    }


def _replication(server, app, injector, phase, faults):
    """A replicated (TeaMPI-style) job under replica-targeted faults.

    Boots a ``rack8`` fleet on the scenario's kernel and runs a two-team,
    R=2 :class:`~repro.apps.nas_mz.MZJob` under its heartbeat
    detector. ``replica_card_failure`` / ``replica_link_flap`` faults name
    a (team, replica) — the builder resolves them against the job's actual
    placement. The ``lagging_replica`` mode re-seeds dropped replicas
    through a :class:`~repro.snapify.fleet.FleetManager` MAINTENANCE
    ticket. A single replica loss must be invisible (the job completes and
    verifies, zero restarts); a full team wipe must surface as a clean
    ``faulted`` outcome, never a crash or deadlock. The
    ``team_membership_consistent`` and ``no_duplicate_delivery`` oracles
    judge membership and message accounting afterwards.
    """
    from ..apps.nas_mz import MZJob
    from ..apps.workloads import NAS_MZ_BENCHMARKS
    from ..mpi.replication import HeartbeatDetector, ReplicationError
    from ..snapify.fleet import FleetManager
    from ..testbed import XeonPhiFleet

    if phase not in REPLICATION_MODES:
        raise ValueError(f"unknown replication mode {phase!r}")
    sim = server.sim
    fleet = XeonPhiFleet("rack8", sim=sim)
    job = MZJob(fleet, NAS_MZ_BENCHMARKS["SP-MZ"], 2, n_replicas=2,
                iterations=6)
    manager = FleetManager(fleet) if phase == "lagging_replica" else None
    detector = HeartbeatDetector(job, misses=2, manager=manager)
    yield from job.launch()
    detector.start()
    for f in faults:
        kind = f.get("kind")
        if kind not in ("replica_card_failure", "replica_link_flap"):
            continue
        key = (f["team"] % job.n_ranks, f["replica"] % job.n_replicas)
        phi = fleet.phi(job.placement[key])
        if kind == "replica_card_failure":
            injector.schedule_card_failure(
                phi, at=sim.now + f["at"],
                repair_after=f.get("repair_after"),
            )
        else:
            injector.schedule_link_flap(
                phi, at=sim.now + f["at"], up_after=f.get("up_after"),
            )

    outcome = "completed"
    try:
        yield from job.join()
    except ReplicationError:
        # A team lost every replica: abort the survivors (they would block
        # forever on halos from the wiped team) and report a clean fault.
        outcome = "faulted"
        job.abort()
    detector.stop()
    if manager is not None and detector.reseed_tickets:
        yield from manager.collect(detector.reseed_tickets)

    bad: List[Violation] = []
    if outcome == "completed" and not job.verify():
        bad.append(Violation(
            "replication",
            "job completed without a verified checksum in every team",
        ))
    if not injector.injected:
        if outcome != "completed":
            bad.append(Violation(
                "replication", "team wiped with no injected fault"
            ))
        if detector.drops:
            bad.append(Violation(
                "replication",
                f"replicas dropped with no injected fault: {detector.drops}",
            ))
    return {
        "outcome": outcome,
        "violations": bad,
        "servers": fleet.servers,
    }


def _incremental(server, app, injector, phase, faults):
    """Incremental dirty-page checkpoints into the in-memory partner tier.

    Drives three capture epochs of one app (base + two deltas), dirtying a
    few percent of the offload process's pages between epochs, with card 1
    as the round-robin partner. ``phase`` selects the stress mode — clean
    (``delta_chain``), the partner card dying mid-replication
    (``partner_loss``: the torn copy must be dropped, never counted), or
    the NFS export flapping under the BACKGROUND demotion ticket
    (``demotion_race``: a failed demotion must leave the chain
    memory-resident, a succeeded one an intact chain file). The
    ``delta_chain_reconstructs`` and ``partner_copy_consistent`` oracles
    judge the ledger afterwards, whatever the interleaving did.
    """
    from ..snapify import FleetManager
    from ..snapify.fleet import DONE as TICKET_DONE
    from ..snapify.fleet import FAILED as TICKET_FAILED
    from ..snapify.ops import capture_sequence
    from ..snapify_io.memtier import MemoryTier

    if phase not in INCREMENTAL_MODES:
        raise ValueError(f"unknown incremental mode {phase!r}")
    sim = server.sim
    tier = MemoryTier.of(sim)
    tier.register_server(server)
    yield from app.launch()
    yield sim.sleep(0.3)
    snap = snapify_t("/fz/inc", coiproc=app.coiproc, incremental=True)
    proc = app.coiproc.offload_proc
    bad: List[Violation] = []
    for epoch in range(3):
        try:
            yield from capture_sequence(snap)
        except CLEAN_ERRORS as exc:
            app.host_proc.terminate(code=1)
            return {"outcome": "faulted", "error": repr(exc), "violations": bad}
        # Dirty a few percent of every region at a seed-independent but
        # epoch-walking offset, page straddles included.
        for region in proc.regions.values():
            span = max(1, region.size // 25)
            offset = (epoch * 7919 * 4096) % max(1, region.size - span)
            region.write(offset, span)
        yield sim.sleep(0.1)

    entry = tier.lookup("/fz/inc")
    if entry is None or len(entry.links) != 3:
        bad.append(Violation(
            "incremental",
            f"expected a 3-link chain in the tier, found "
            f"{len(entry.links) if entry else 'no entry'}",
        ))
    if phase == "demotion_race":
        manager = FleetManager(sim=sim, name="incfleet")
        ticket = manager.submit_demotion("demote:/fz/inc", "/fz/inc",
                                         server.host_os)
        result = yield from manager.collect([ticket])
        t = result.tickets["demote:/fz/inc"]
        if t.state == TICKET_DONE:
            if entry is not None and not entry.demoted:
                bad.append(Violation(
                    "incremental",
                    "demotion ticket DONE but the chain is not marked demoted",
                ))
        elif t.state == TICKET_FAILED:
            # NFS stayed down past the retry horizon: acceptable, but the
            # chain must still be fully memory-resident.
            if entry is not None and entry.demoted:
                bad.append(Violation(
                    "incremental",
                    f"demotion ticket FAILED ({t.error}) but the chain is "
                    "marked demoted",
                ))
    yield app.host_proc.main_thread.done
    return {"outcome": "completed", "violations": bad + _verify_violation(app)}


def _plugin(server, app, injector, phase, faults):
    """One checkpoint-content plugin round-tripping its resource class.

    ``phase`` picks the resource (see :data:`PLUGIN_MODES`). The driver
    builds a bare process on card 0 owning exactly that resource, captures
    it with :func:`~repro.blcr.cr_checkpoint` through a host-FS descriptor,
    terminates the source, then restores on card 0 or card 1 — the schedule
    seed's parity decides, so the fuzz sweep exercises both targets. The
    quiescence oracles (``socket_listeners_owned``,
    ``restored_files_consistent``, ``pending_signals_blocked``,
    ``rdma_windows_replayed``) judge the aftermath; the driver itself
    asserts the resource actually works again. Cross-card restores of
    namespace sockets and RDMA windows must refuse with the typed
    :class:`~repro.blcr.plugins.PluginError` — silently dropping the
    resource is the bug class this scenario exists to catch.
    """
    from ..blcr import cr_checkpoint, cr_restart
    from ..blcr.plugins import (
        RDMA_PENDING_KEY,
        register_standard_plugins,
        replay_rdma_windows,
    )
    from ..osim import signals as sig
    from ..osim.fd import RegularFileFD
    from ..osim.sockets import UnixSocket
    from ..scif.endpoint import ScifNetwork

    if phase not in PLUGIN_MODES:
        raise ValueError(f"unknown plugin mode {phase!r}")
    sim = server.sim
    cross = bool((sim.schedule_seed or 0) % 2)
    src_os = server.phi_os(0)
    dst_os = server.phi_os(1) if cross else src_os
    register_standard_plugins(src_os)
    register_standard_plugins(dst_os)
    bad: List[Violation] = []

    proc = yield from src_os.spawn_process("plugproc", image_size=4 * MB,
                                           start=False)
    proc.map_region("heap", 2 * MB, data=["plug-heap"])
    proc.store["mode"] = phase
    client_name = ramfs_path = None

    if phase == "socket_restore":
        a, b = UnixSocket.pair(sim, src_os.sockets.default_bandwidth,
                               name="plugpair")
        proc.register_fd(a)
        proc.register_fd(b)
        yield from a.write(8192, record="warm")
        if (yield from b.read()) != "warm":
            bad.append(Violation("plugin", "socket pair broken before capture"))
        # A long-lived service owns the listener, so the name survives the
        # checkpointed process's death and a same-card reconnect can land.
        srv = yield from src_os.spawn_process("plugsrv", image_size=MB,
                                              start=False)
        src_os.sockets.listen("@plug", owner=srv)
        client = yield from src_os.sockets.connect("@plug")
        proc.register_fd(client)
        client_name = client.name
    elif phase == "ramfs_offsets":
        ramfs_path = "/plug/data"
        yield from src_os.fs.write(ramfs_path, 6 * 4096,
                                   payload=[f"rec{i}" for i in range(6)])
        fd = RegularFileFD(sim, src_os.fs, ramfs_path, "r")
        proc.register_fd(fd)
        for i in range(2):  # leave the cursor mid-file
            if (yield from fd.read(4096)) != f"rec{i}":
                bad.append(Violation("plugin", "ramfs read wrong before capture"))
    elif phase == "signal_pending":
        def _bump(p, signum):
            p.store["sig_count"] = p.store.get("sig_count", 0) + 1
            return
            yield  # pragma: no cover - generator form

        proc.install_signal_handler(sig.SIGUSR1, _bump)
        proc.block_signal(sig.SIGUSR1)
        proc.deliver_signal(sig.SIGUSR1)
        proc.deliver_signal(sig.SIGUSR1)
    else:  # rdma_migrate
        from ..scif.registry import scif_register

        net = ScifNetwork.of(server.node)
        net.listen(server.host_os, 3971)
        ep = yield from net.connect(src_os, 0, 3971, proc=proc)
        yield from scif_register(ep, MB)
        yield from scif_register(ep, 2 * MB)

    yield sim.sleep(0.05)
    ckpt_path = f"/fz/plug_{phase}"
    wfd = RegularFileFD(sim, server.host_os.fs, ckpt_path, "w")
    yield from cr_checkpoint(proc, wfd)
    wfd.close()
    proc.terminate(code=0)
    yield sim.sleep(0.05)

    rfd = RegularFileFD(sim, server.host_os.fs, ckpt_path, "r")
    expect_refusal = cross and phase in ("socket_restore", "rdma_migrate")
    try:
        restored = yield from cr_restart(dst_os, rfd, name="plugproc.r",
                                         start=False)
    except PluginError as exc:
        rfd.close()
        if not expect_refusal:
            bad.append(Violation(
                "plugin", f"{phase}: restore on {dst_os.name} refused "
                f"unexpectedly: {exc!r}",
            ))
        return {"outcome": "faulted", "error": repr(exc), "violations": bad}
    rfd.close()
    if expect_refusal:
        bad.append(Violation(
            "plugin",
            f"{phase}: cross-card restore succeeded but must refuse (the "
            "resource is pinned to the source card)",
        ))
        return {"outcome": "completed", "violations": bad}

    if restored.store.get("mode") != phase:
        bad.append(Violation("plugin", "store lost across restore"))
    if phase == "socket_restore":
        socks = restored.runtime.get("restored_sockets", {})
        ra, rb = socks.get("plugpair.a"), socks.get("plugpair.b")
        if ra is None or rb is None:
            bad.append(Violation("plugin", "socket pair not restored"))
        else:
            yield from ra.write(4096, record="ping")
            if (yield from rb.read()) != "ping":
                bad.append(Violation(
                    "plugin", "restored pair dropped a datagram"))
        rc = socks.get(client_name)
        if rc is None or rc.address != "@plug":
            bad.append(Violation(
                "plugin", f"namespace client {client_name!r} not reconnected"))
    elif phase == "ramfs_offsets":
        rfile = restored.runtime.get("restored_files", {}).get(ramfs_path)
        if rfile is None or rfile._read_cursor != 2:
            bad.append(Violation(
                "plugin",
                f"read cursor lost: {rfile and rfile._read_cursor!r}",
            ))
        elif (yield from rfile.read(4096)) != "rec2":
            bad.append(Violation(
                "plugin", "restored file resumed at the wrong record"))
    elif phase == "signal_pending":
        if restored.pending_signals != [sig.SIGUSR1, sig.SIGUSR1]:
            bad.append(Violation(
                "plugin",
                f"pending signals lost: {restored.pending_signals}",
            ))
        if sig.SIGUSR1 not in restored.blocked_signals:
            bad.append(Violation("plugin", "blocked mask lost across restore"))
        restored.unblock_signal(sig.SIGUSR1)
        yield sim.sleep(0.01)
        if restored.store.get("sig_count", 0) != 2:
            bad.append(Violation(
                "plugin",
                f"queued signals not delivered after unblock "
                f"(sig_count={restored.store.get('sig_count')})",
            ))
    else:  # rdma_migrate, same card
        pending = restored.runtime.get(RDMA_PENDING_KEY)
        if not pending or len(pending) != 2:
            bad.append(Violation(
                "plugin", f"RDMA windows not stashed for replay: {pending!r}"))
        else:
            net = ScifNetwork.of(server.node)
            ep2 = yield from net.connect(dst_os, 0, 3971, proc=restored)
            table = yield from replay_rdma_windows(restored, ep2)
            if len(table) != 2 or sum(ep2.windows.values()) != 3 * MB:
                bad.append(Violation(
                    "plugin",
                    f"window replay incomplete: map={table!r}, "
                    f"registered={sum(ep2.windows.values())}",
                ))
    return {"outcome": "completed", "violations": bad}


def _sched(server, app, injector, phase, faults):
    """One of paper §1's consumers (:data:`SCHED_MODES`), driven as its
    example drives it, under the plan's card failures. The fleet oracles
    also audit the swap scheduler's (private) fleet manager."""
    drivers = {"swap": _sched_swap, "proactive": _sched_proactive,
               "resilient": _sched_resilient}
    if phase not in drivers:
        raise ValueError(f"unknown sched mode {phase!r}")
    return (yield from drivers[phase](server, injector))


def _sched_swap(server, injector):
    """A big tenant swapped out for a 7 GB burst job must not run until it
    is reclaimed, both must checksum clean, and while card 0 lives every
    swap ticket must land DONE."""
    from ..hw import GB
    from ..sched import SwapScheduler

    sched = SwapScheduler(server, device=0)
    big = offload_app(server, "SS", iterations=120, name="sample-sort")
    burst = offload_app(server, "FT", iterations=40, name="fft-burst")
    yield from big.launch()
    yield server.sim.sleep(1.5)
    sched.register(big.host_proc, footprint=2 * GB)
    yield from sched.make_room(incoming=7 * GB)
    frozen = big.host_proc.store["iter"]
    yield from burst.launch()
    yield burst.host_proc.main_thread.done
    bad = [Violation("sched", f"swapped-out tenant ran past iteration {frozen}")
           ] if big.host_proc.store["iter"] != frozen else []
    yield from sched.job_finished(burst.host_proc)
    yield big.host_proc.main_thread.done
    if "card_failure:0" not in injector.injected:
        bad += [Violation("sched", f"{t.key} ended {t.state}: {t.error}")
                for t in sched.fleet.tickets if t.state != "DONE"]
    return {"outcome": "completed",
            "violations": bad + _verify_violation(big) + _verify_violation(burst)}


def _sched_proactive(server, injector):
    """A job on mic0 under a warned mic0 failure either moves to mic1 and
    finishes verified there, or (warned too late) dies with its card and
    the run ends ``faulted``. Without a mic0 failure the job may finish
    where it started. A bystander on mic1 never moves."""
    from ..sched import ProactiveMigrator

    migrator = ProactiveMigrator(server, injector)
    job = offload_app(server, "KM", iterations=1500, name="kmeans")
    bystander = offload_app(server, "MC", iterations=200, device=1,
                            name="bystander")
    yield from job.launch()
    yield from bystander.launch()
    result = {"outcome": "completed", "violations": []}
    try:
        yield job.host_proc.main_thread.done
    except (CLEAN_ERRORS + (Interrupted, ThreadKilled)) as exc:
        job.host_proc.terminate(code=1)
        result.update(outcome="faulted", error=repr(exc))
    yield bystander.host_proc.main_thread.done
    bad = result["violations"]
    if result["outcome"] == "completed":
        bad += _verify_violation(job)
        if ("card_failure:0" in injector.injected
                and job.coiproc.offload_proc.os is not server.phi_os(1)):
            bad.append(Violation("sched", "the job finished off mic1"))
    bad += _verify_violation(bystander)
    if ([m for m in migrator.migrations_done if m[0] != job.name]
            or bystander.coiproc.offload_proc.os is not server.phi_os(1)):
        bad.append(Violation("sched", "the bystander moved"))
    return result


def _sched_resilient(server, injector):
    """A short KM job under a ResilientRunner at the Young interval must
    checksum clean, and a failure of its card must have cost a restart."""
    from ..sched import ResilientRunner, young_interval

    app = offload_app(server, "KM", iterations=800)
    # Card MTBF 3 s; 0.48 s is KM's checkpoint cost (Fig 10a).
    runner = ResilientRunner(server, app, interval=young_interval(3.0, 0.48),
                             restart_from_scratch=True)
    yield from runner.run()
    bad = _verify_violation(app)
    if "card_failure:0" in injector.injected and not runner.restarts:
        bad.append(Violation("sched", "the job's card failed, but it never restarted"))
    return {"outcome": "completed", "violations": bad}


SCENARIOS = {
    "checkpoint": _checkpoint,
    "restart": _restart,
    "swap": _swap,
    "migrate": _migrate,
    "concurrent_checkpoint": _concurrent_checkpoint,
    "checkpoint_fault": _checkpoint_fault,
    "transfer_fault": _transfer_fault,
    "fleet": _fleet,
    "incremental": _incremental,
    "plugin": _plugin,
    "replication": _replication,
    "sched": _sched,
}

#: Every parameterized scenario and the modes the catalogue runs it in
#: (``fleet`` takes a topology name).
SCENARIO_MODES: Dict[str, Tuple[str, ...]] = {
    "checkpoint_fault": CHECKPOINT_FAULT_PHASES,
    "transfer_fault": TRANSFER_FAULT_MODES,
    "fleet": ("rack8",),
    "incremental": INCREMENTAL_MODES,
    "plugin": PLUGIN_MODES,
    "replication": REPLICATION_MODES,
    "sched": SCHED_MODES,
}


def scenario_names() -> List[str]:
    """All runnable names, with parameterized scenarios expanded."""
    names = [n for n in SCENARIOS if n not in SCENARIO_MODES]
    for base, modes in SCENARIO_MODES.items():
        names.extend(f"{base}:{mode}" for mode in modes)
    return names


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


def _trace_digest(sim: Simulator) -> str:
    """Digest of the full event trace + final clock: byte-identical replay
    of a (seed, scenario, faults) triple means byte-identical digests."""
    h = hashlib.sha256()
    for rec in sim.trace.records:
        h.update(repr(rec).encode())
        h.update(b"\n")
    h.update(f"t={sim.now!r}".encode())
    return h.hexdigest()


def normalize_faults(faults: Sequence[Dict[str, Any]]) -> Tuple[Dict[str, Any], ...]:
    """Canonical, JSON-stable form of a fault plan."""
    return tuple({k: f[k] for k in sorted(f)} for f in faults)


def run_scenario(
    name: str,
    seed: Optional[int] = None,
    faults: Sequence[Dict[str, Any]] = (),
    *,
    capture_trace: bool = False,
    instrument: Optional[Callable[[Simulator], Any]] = None,
) -> RunResult:
    """Run one scenario under one schedule seed and fault plan.

    ``name`` is a scenario key, optionally parameterized as
    ``<base>:<mode>`` for a base of :data:`SCENARIO_MODES`.
    ``faults`` entries are dicts dispatched on
    their ``"kind"`` (default ``card_failure``): ``card_failure`` takes
    ``{"device", "at"}`` plus optional ``"warning_lead"`` /
    ``"repair_after"``; ``link_flap`` takes ``{"device", "at"}`` plus
    optional ``"up_after"``; ``io_daemon_crash`` takes ``{"node", "at"}``
    (SCIF numbering: 0 = host) plus optional ``"restart_after"``;
    ``nfs_down`` takes ``{"at"}`` plus optional ``"restore_after"``.
    ``replica_card_failure`` / ``replica_link_flap`` name a
    ``{"team", "replica"}`` instead of a device — the replication builder
    resolves them against its own placement. Entries with ``"phase"``
    select the injection boundary of the ``checkpoint_fault`` scenario.

    ``capture_trace`` records the full trace (and its digest).
    ``instrument``, when given, is called with the booted kernel before the
    driver starts — e.g. to install a
    :class:`~repro.obs.timeseries.TimeSeriesRecorder`.
    """
    base, _, phase = name.partition(":")
    try:
        builder = SCENARIOS[base]
    except KeyError:
        raise ValueError(f"unknown scenario {name!r} (have {sorted(SCENARIOS)})") from None
    faults = normalize_faults(faults)
    sim = Simulator(schedule_seed=seed, trace=capture_trace)
    server = XeonPhiServer(sim=sim)
    injector = FaultInjector(sim)
    server.fault_injector = injector  # the retry_accounting oracle audits it
    app = _mk_app(server)
    phase = phase or next((f["phase"] for f in faults if "phase" in f), None)
    for f in faults:
        if "phase" in f:
            continue
        # Fault times are offsets after testbed boot (boot itself consumes
        # simulated time, deterministically per seed).
        kind = f.get("kind", "card_failure")
        if kind in ("fleet_card_failure", "replica_card_failure",
                    "replica_link_flap"):
            continue  # fleet/replica-relative; their builders schedule them
        if kind == "card_failure":
            injector.schedule_card_failure(
                server.node.phis[f["device"]],
                at=sim.now + f["at"],
                warning_lead=f.get("warning_lead"),
                repair_after=f.get("repair_after"),
            )
        elif kind == "link_flap":
            injector.schedule_link_flap(
                server.node.phis[f["device"]],
                at=sim.now + f["at"],
                up_after=f.get("up_after"),
            )
        elif kind == "io_daemon_crash":
            os_ = server.host_os if f["node"] == 0 else server.phi_os(f["node"] - 1)
            injector.schedule_io_daemon_crash(
                os_, at=sim.now + f["at"],
                restart_after=f.get("restart_after"),
            )
        elif kind == "nfs_down":
            injector.schedule_nfs_outage(
                server.node, at=sim.now + f["at"],
                restore_after=f.get("restore_after"),
            )
        else:
            raise ValueError(f"unknown fault kind {kind!r}")
    if instrument is not None:
        instrument(sim)

    outcome = "crash"
    error = error_type = None
    waitfor: List[Dict[str, Any]] = []
    extra: List[Violation] = []
    extra_servers: List[XeonPhiServer] = []
    try:
        result = server.run(builder(server, app, injector, phase, faults),
                            name=f"fuzz:{name}")
        outcome = result.get("outcome", "completed")
        error = result.get("error")
        extra = result.get("violations", [])
        extra_servers = result.get("servers", [])
        sim.run(check_deadlock=True)  # settle: daemons drain, monitors exit
    except DeadlockError as exc:
        outcome, error, error_type = "deadlock", str(exc), "DeadlockError"
        waitfor = exc.waitfor or sim.wait_for_graph()
    except CLEAN_ERRORS as exc:
        outcome, error, error_type = "clean_error", repr(exc), type(exc).__name__
    except Exception as exc:  # noqa: BLE001 - fuzzing boundary
        outcome, error, error_type = "crash", repr(exc), type(exc).__name__

    violations = extra + check_all(server)
    for extra_server in extra_servers:
        violations.extend(check_all(extra_server))
    # Fleet scenarios check many servers on one kernel; sim-wide oracles
    # (fleet caps, crashed threads) repeat verbatim per server — keep one.
    violations = list(dict.fromkeys(violations))
    ok = not violations and outcome in ("completed", "faulted", "clean_error")
    mgr = OperationManager.peek(sim)
    operations = [op.describe() for op in mgr.operations.values()] if mgr else []
    return RunResult(
        scenario=name,
        seed=seed,
        faults=faults,
        ok=ok,
        outcome=outcome,
        violations=violations,
        error=error,
        error_type=error_type,
        final_time=sim.now,
        waitfor=waitfor,
        trace_digest=_trace_digest(sim) if capture_trace else None,
        operations=operations,
        sim=sim,
    )
