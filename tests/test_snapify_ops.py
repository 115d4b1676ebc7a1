"""The operation state machine and correlated-completion guarantees.

The tentpole hazard this file pins down: before operations carried
correlation ids, ``snapify_capture``'s completion waiter did a bare
``daemon_ep.recv()``, so two captures overlapping on ONE daemon endpoint
would steal each other's ``CAPTURE_COMPLETE`` — the first waiter got
whichever completion arrived first, regardless of whose capture it was.
``test_overlapping_captures_on_one_endpoint_keep_their_completions`` runs
exactly that schedule (a slow and a fast capture sharing an endpoint, the
fast one completing first) and asserts each handle observed *its own*
bytes; against the old unkeyed recv the sizes come back swapped.

The rest covers the machine itself (legal path, illegal moves, idempotent
failure), the typed results, the keyed-only reply rule (a reply or pipe
status naming no operation is a typed error, never routed to whoever is
receiving), wait/wait_all error aggregation, the
two-card ``snapshot_application`` path with per-operation timelines, and
the ``operations_quiescent`` fuzz oracle, and the typed fields every
Figure 10/11 number is read from (each result reports only what its own
operation saved, captured or restored).
"""

import pytest

from repro.apps import NAS_MZ_BENCHMARKS
from repro.apps.nas_mz import MZJob
from repro.blcr.plugins import PluginRegistry, SocketPlugin
from repro.check.oracles import operations_quiescent
from repro.coi import OffloadBinary, OffloadFunction
from repro.hw import MB
from repro.mpi import mpi_checkpoint
from repro.obs import operation_timelines
from repro.sim import Simulator
from repro.snapify import (
    OperationManager,
    checkpoint_offload_app,
    restart_offload_app,
    snapify_capture,
    snapify_pause,
    snapify_resume,
    snapify_swapin,
    snapify_swapout,
    snapify_t,
    snapify_wait,
    snapshot_application,
)
from repro.snapify.constants import CAPTURE_COMPLETE, PAUSE_ACK
from repro.snapify.monitor import SnapifyError, SnapifyService
from repro.snapify.ops import CAPTURING, DRAINED, FAILED, PAUSING, TRANSFERRING
from repro.testbed import XeonPhiCluster, XeonPhiServer, offload_app


def _binary(name, image_mb):
    return OffloadBinary(
        name=name,
        image_size=image_mb * MB,
        functions={"step": OffloadFunction("step", duration=0.05)},
    )


def _launch(server, image_mbs, device=0, prefix="capp"):
    """One offload process per entry of ``image_mbs``, all on one card."""
    out = []

    def setup(sim):
        for i, image_mb in enumerate(image_mbs):
            host_proc = yield from server.host_os.spawn_process(
                f"{prefix}{i}", image_size=4 * MB
            )
            coiproc = yield from server.engine(device).process_create(
                host_proc, _binary(f"{prefix}{i}.so", image_mb)
            )
            buf = yield from coiproc.buffer_create(4 * MB)
            yield from coiproc.buffer_write(buf, payload=i + 1)
            out.append(coiproc)

    server.run(setup(server.sim))
    return out


# ---------------------------------------------------------------------------
# State machine
# ---------------------------------------------------------------------------


def test_full_lifecycle_produces_phase_accounting():
    sim = Simulator()
    mgr = OperationManager.of(sim)
    box = {}

    def driver(s):
        op = mgr.begin("checkpoint")
        op.transition(PAUSING)
        yield s.timeout(0.10)
        op.transition(DRAINED)
        yield s.timeout(0.05)
        op.transition(CAPTURING)
        yield s.timeout(0.20)
        op.transition(TRANSFERRING)
        yield s.timeout(0.02)
        box["op"] = op
        box["result"] = op.complete()

    sim.spawn(driver(sim), name="lifecycle")
    sim.run()
    res = box["result"]
    assert res.ok and res.state == "DONE" and res.error is None
    assert res.phases["pausing"] == pytest.approx(0.10)
    assert res.phases["drained"] == pytest.approx(0.05)
    assert res.phases["capturing"] == pytest.approx(0.20)
    assert res.phases["transferring"] == pytest.approx(0.02)
    assert res.elapsed == pytest.approx(0.37)
    # complete() is idempotent and the manager remembers the operation.
    assert box["op"].complete() is res
    assert mgr.operations[res.op_id] is box["op"]
    assert mgr.non_terminal() == []


def test_illegal_transition_raises_and_leaves_state_untouched():
    sim = Simulator()
    op = OperationManager.of(sim).begin("checkpoint")
    with pytest.raises(SnapifyError, match="illegal operation transition") as ei:
        op.transition(CAPTURING)  # REQUESTED cannot skip the pause
    assert ei.value.op_id == op.op_id
    assert op.state == "REQUESTED"
    op.complete()
    with pytest.raises(SnapifyError):
        op.transition(PAUSING)  # terminal states are never left


def test_fail_is_idempotent_and_complete_after_fail_raises():
    sim = Simulator()
    op = OperationManager.of(sim).begin("swapout")
    op.transition(PAUSING)
    first = op.fail("card fell off the bus")
    assert first.state == FAILED and not first.ok
    assert first.failed_phase == PAUSING  # defaulted to the wedged state
    # A second report (waiter thread, then the waiting API call) is a no-op.
    assert op.fail("later, different story") is first
    assert op.error == "card fell off the bus"
    with pytest.raises(SnapifyError, match="failed operation"):
        op.complete()


def test_snapify_error_carries_operation_context():
    err = SnapifyError("capture failed", op_id=7, phase=CAPTURING)
    assert err.op_id == 7 and err.phase == CAPTURING
    assert "capture failed [op 7 @ CAPTURING]" in str(err)
    plain = SnapifyError("no live offload process in handle")
    assert plain.op_id is None and plain.phase is None
    assert "[op" not in str(plain)


def test_wait_returns_result_and_wait_all_names_every_failure():
    sim = Simulator()
    mgr = OperationManager.of(sim)
    ok = mgr.begin("checkpoint")
    bad1 = mgr.begin("swapout")
    bad2 = mgr.begin("restore")
    ok.complete()
    bad1.fail("card fell off the bus", phase=CAPTURING)
    bad2.fail("restore image corrupt")

    # All ops are terminal, so the sub-generators never yield.
    with pytest.raises(StopIteration) as done:
        next(mgr.wait(ok))
    assert done.value.value is ok.result

    with pytest.raises(SnapifyError) as ei:
        next(mgr.wait_all([ok, bad1, bad2]))
    msg = str(ei.value)
    assert "2 operation(s) failed" in msg
    assert f"op {bad1.op_id} (swapout)" in msg
    assert f"op {bad2.op_id} (restore)" in msg
    assert "card fell off the bus" in msg
    assert ei.value.op_id == bad1.op_id and ei.value.phase == CAPTURING

    with pytest.raises(StopIteration) as all_done:
        next(mgr.wait_all([ok, bad1, bad2], raise_on_error=False))
    assert [r.ok for r in all_done.value.value] == [True, False, False]


# ---------------------------------------------------------------------------
# The completion-stealing regression (tentpole hazard)
# ---------------------------------------------------------------------------


def _solo_capture_size(image_mb):
    """Reference: the offload-snapshot byte count a lone capture observes."""
    server = XeonPhiServer()
    [coiproc] = _launch(server, [image_mb], prefix="solo")

    def driver(sim):
        snap = snapify_t(snapshot_path="/snap/solo", coiproc=coiproc)
        yield from snapify_pause(snap)
        yield from snapify_capture(snap, terminate=False)
        yield from snapify_wait(snap)
        yield from snapify_resume(snap)
        return snap

    snap = server.run(driver(server.sim))
    return snap.op.result.image_bytes


def test_overlapping_captures_on_one_endpoint_keep_their_completions():
    """Two captures in flight on ONE daemon endpoint: the slow (32 MB) one
    is issued first, the fast (8 MB) one completes first. With the old
    unkeyed recv the first waiter swallowed the fast capture's completion
    and both handles reported swapped sizes; with op-id demultiplexing each
    observes exactly what a solo run of its own process observes."""
    server = XeonPhiServer()
    big, small = _launch(server, [32, 8], prefix="steal")
    # Route both handles over one SERVICE connection — the shared-endpoint
    # schedule the demux exists for.
    small.daemon_ep = big.daemon_ep

    def driver(sim):
        a = snapify_t(snapshot_path="/snap/steal_big", coiproc=big)
        b = snapify_t(snapshot_path="/snap/steal_small", coiproc=small)
        yield from snapify_pause(a)
        yield from snapify_pause(b)
        yield from snapify_capture(a, terminate=False)  # slow, completes last
        yield from snapify_capture(b, terminate=False)  # fast, completes first
        yield from snapify_wait(a)
        yield from snapify_wait(b)
        yield from snapify_resume(a)
        yield from snapify_resume(b)
        return a, b

    a, b = server.run(driver(server.sim))
    ra, rb = a.op.result, b.op.result
    assert ra.image_bytes == _solo_capture_size(32)
    assert rb.image_bytes == _solo_capture_size(8)
    assert ra.image_bytes > rb.image_bytes

    assert ra.ok and rb.ok
    assert ra.op_id != rb.op_id
    assert ra.pid == big.offload_proc.pid
    assert rb.pid == small.offload_proc.pid
    assert ra.snapshot_path == "/snap/steal_big"
    assert rb.snapshot_path == "/snap/steal_small"
    # The slow capture also *took longer* end to end — stealing would have
    # closed it at the fast capture's completion time.
    assert ra.phases["capturing"] > rb.phases["capturing"]


# ---------------------------------------------------------------------------
# Keyed-only protocol: a reply must name its operation
# ---------------------------------------------------------------------------


class _OneReplyEndpoint:
    """A daemon endpoint whose every recv() yields ``msg`` after 1 ms."""

    eid = 4242

    def __init__(self, sim, msg):
        self.sim, self.msg = sim, msg

    def recv(self):
        return self.sim.timeout(1e-3, self.msg)


@pytest.mark.parametrize("reply", [
    {"t": PAUSE_ACK, "op_id": 999},  # an id nobody issued
    {"t": PAUSE_ACK},  # no id at all
])
def test_reply_naming_no_operation_is_not_handed_to_the_receiver(reply):
    sim = Simulator()
    mgr = OperationManager.of(sim)
    op = mgr.begin("checkpoint")
    ep = _OneReplyEndpoint(sim, reply)
    box = {}

    def receiver(s):
        try:
            box["reply"] = yield from mgr.recv_reply(op, ep)
        except SnapifyError as exc:
            box["error"] = exc

    sim.spawn(receiver(sim), name="receiver")
    sim.run()
    assert "reply" not in box
    assert "names no known operation" in str(box["error"])
    assert box["error"].op_id == op.op_id


def test_pipe_status_naming_no_request_fails_the_match():
    reqs = [((7, 1), "first"), ((7, 2), "second")]
    assert SnapifyService._match(reqs, {"t": CAPTURE_COMPLETE, "op_id": 2}) == \
        ((7, 2), "second")
    for msg in ({"t": CAPTURE_COMPLETE, "op_id": 3}, {"t": CAPTURE_COMPLETE}):
        with pytest.raises(SnapifyError, match="names no active request of pid 7"):
            SnapifyService._match(reqs, msg)


# ---------------------------------------------------------------------------
# snapshot_application across cards
# ---------------------------------------------------------------------------


def test_snapshot_application_across_cards_attributes_results():
    """One application spanning two cards, snapshotted concurrently: every
    operation completes DONE, results come back in input order with the
    right pids and sizes, and the trace yields one per-operation timeline
    with nonzero pause/capture phases."""
    sim = Simulator(trace=True)
    server = XeonPhiServer(sim=sim)
    snaps = []

    def setup(s):
        host_proc = yield from server.host_os.spawn_process(
            "spanning", image_size=4 * MB
        )
        for dev in range(2):
            coiproc = yield from server.engine(dev).process_create(
                host_proc, _binary(f"span{dev}.so", 8)
            )
            buf = yield from coiproc.buffer_create((dev + 1) * 4 * MB)
            yield from coiproc.buffer_write(buf, payload=dev + 1)
            snaps.append(
                snapify_t(snapshot_path=f"/snap/span{dev}", coiproc=coiproc)
            )

    server.run(setup(sim))

    def driver(s):
        return (yield from snapshot_application(snaps, kind="checkpoint"))

    results = server.run(driver(sim))
    assert len(results) == 2 and all(r.ok for r in results)
    assert [r.pid for r in results] == [
        snap.coiproc.offload_proc.pid for snap in snaps
    ]
    assert len({r.op_id for r in results}) == 2
    # Per-card attribution of the local-store drain: card 1 held twice the
    # buffer bytes of card 0.
    assert results[1].localstore_bytes == 2 * results[0].localstore_bytes

    timelines = {tl.op_id: tl for tl in operation_timelines(sim.trace)}
    for r in results:
        tl = timelines[r.op_id]
        assert tl.final_state == "DONE" and tl.error is None
        assert tl.pid == r.pid
        phases = tl.phases()
        assert phases["pausing"] > 0 and phases["capturing"] > 0
        assert tl.elapsed == pytest.approx(r.elapsed)


# ---------------------------------------------------------------------------
# Typed sources of the Figure 10/11 numbers
# ---------------------------------------------------------------------------


def test_swapin_reports_the_swapped_out_image_but_no_local_store():
    server = XeonPhiServer()
    [coiproc] = _launch(server, [16], prefix="own")

    def driver(sim):
        snap = yield from snapify_swapout("/snap/own", coiproc)
        swapout = snap.op.result
        yield from snapify_swapin(snap, server.engine(1))
        return swapout, snap.op.result

    swapout, swapin = server.run(driver(server.sim))
    assert swapout.localstore_bytes == 4 * MB
    assert swapin.localstore_bytes is None  # the swap-in never paused
    assert swapin.image_bytes == swapin.shipped_bytes == swapout.image_bytes > 0
    assert 0 < swapin.restore_s < swapin.elapsed


def test_restart_from_a_fresh_handle_reports_no_image():
    server = XeonPhiServer()
    app = offload_app(server, "MC", iterations=10_000)

    def driver(sim):
        yield from app.launch()
        yield sim.timeout(0.2)
        snap = snapify_t("/snap/fresh", coiproc=app.coiproc)
        yield from checkpoint_offload_app(snap)
        app.host_proc.terminate(code=1)
        yield sim.timeout(0.05)
        restarted = yield from restart_offload_app(server.host_os, "/snap/fresh",
                                                   server.engine(0))
        return snap.op.result, restarted.result

    checkpoint, restart = server.run(driver(server.sim))
    assert checkpoint.image_bytes > 0
    assert checkpoint.host_snapshot_bytes > 0 and checkpoint.host_snapshot_s > 0
    assert restart.image_bytes is None and restart.shipped_bytes is None
    assert restart.localstore_bytes is None
    assert restart.host_restart_s > 0
    assert 0 < restart.restore_s < restart.elapsed


def test_mpi_rank_snapshot_bytes_sum_the_typed_results():
    cluster = XeonPhiCluster(n_nodes=2)
    job = MZJob(cluster, NAS_MZ_BENCHMARKS["BT-MZ"], 2, iterations=8)

    def driver(sim):
        yield from job.launch()
        yield sim.timeout(0.5)
        report = yield from mpi_checkpoint(job, "/snap/mpi-typed")
        yield from job.join()
        return report

    report = cluster.run(driver(cluster.sim))
    results = report["operations"]
    assert all(r.host_snapshot_bytes and r.image_bytes and r.localstore_bytes
               for r in results)
    assert report["rank_snapshot_bytes"] == {
        rank: r.host_snapshot_bytes + r.image_bytes + r.localstore_bytes
        for rank, r in enumerate(results)
    }


@pytest.mark.parametrize("socket_plugin, drained", [(False, 0), (True, 1)])
def test_drained_record_always_counts_drain_plugins(socket_plugin, drained):
    server = XeonPhiServer(sim=Simulator(trace=True))
    if socket_plugin:
        PluginRegistry.of(server.phi_os(0)).register(SocketPlugin())
    [coiproc] = _launch(server, [8], prefix="drain")

    def driver(sim):
        snap = snapify_t("/snap/drain", coiproc=coiproc)
        yield from snapify_pause(snap)
        yield from snapify_resume(snap)

    server.run(driver(server.sim))
    [record] = [r for r in server.sim.trace.records
                if r.category == "op.state" and r.fields["state"] == DRAINED]
    assert record.fields["plugins_drained"] == drained


# ---------------------------------------------------------------------------
# Quiescence oracle
# ---------------------------------------------------------------------------


def test_operations_quiescent_oracle():
    from types import SimpleNamespace

    server = XeonPhiServer()
    # No manager ever created: clean, and the oracle must not create one.
    assert operations_quiescent(server) == []
    assert OperationManager.peek(server.sim) is None

    mgr = OperationManager.of(server.sim)
    op = mgr.begin("checkpoint")
    violations = operations_quiescent(server)
    assert len(violations) == 1
    assert f"op {op.op_id}" in violations[0].detail
    assert "REQUESTED" in violations[0].detail

    op.complete()
    assert operations_quiescent(server) == []

    # An operation whose processes died under it is abandoned, not leaked.
    ghost_snap = SimpleNamespace(
        coiproc=SimpleNamespace(host_proc=None, offload_proc=None, dead=True)
    )
    ghost = mgr.begin("swapout", ghost_snap)
    assert not ghost.is_terminal
    assert operations_quiescent(server) == []
    assert ghost.abandoned()
