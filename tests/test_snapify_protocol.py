"""Protocol tests for Snapify's pause / capture / resume / restore."""

import pytest

from repro.coi import COIDaemon, OffloadBinary, OffloadFunction
from repro.hw import MB
from repro.snapify import (
    snapify_capture,
    snapify_pause,
    snapify_restore,
    snapify_resume,
    snapify_t,
    snapify_wait,
)
from repro.snapify.constants import context_path, libs_path, localstore_path
from repro.snapify.monitor import SnapifyService
from repro.testbed import XeonPhiServer


def accumulate_effect(ctx, args):
    """result += sum(buffer payload); models an iterative kernel step."""
    data = ctx.buffer_payload(args["buf"]) or 0
    ctx.store["acc"] = ctx.store.get("acc", 0) + data
    return ctx.store["acc"]


def make_binary():
    return OffloadBinary(
        name="snapify_test.so",
        image_size=8 * MB,
        functions={
            "step": OffloadFunction("step", duration=0.05, effect=accumulate_effect),
            "slow": OffloadFunction("slow", duration=1.0, effect=accumulate_effect),
        },
    )


def launch(server, binary=None, buffer_mb=64):
    binary = binary or make_binary()
    out = {}

    def setup(sim):
        host_proc = yield from server.host_os.spawn_process("app", image_size=4 * MB)
        coiproc = yield from server.engine(0).process_create(host_proc, binary)
        buf = yield from coiproc.buffer_create(buffer_mb * MB)
        yield from coiproc.buffer_write(buf, payload=7)
        out["host_proc"], out["coiproc"], out["buf"] = host_proc, coiproc, buf

    server.run(setup(server.sim))
    return out


def test_pause_empties_channels_and_saves_local_store():
    server = XeonPhiServer()
    env = launch(server, buffer_mb=128)
    coiproc = env["coiproc"]
    snap = snapify_t(snapshot_path="/snap/t1", coiproc=coiproc)

    def driver(sim):
        yield from snapify_pause(snap)
        assert coiproc.channels_empty()
        yield from snapify_resume(snap)

    server.run(driver(server.sim))
    # Local store + libs landed in the snapshot directory on the host.
    host_fs = server.host_os.fs
    assert host_fs.stat(localstore_path("/snap/t1")).size >= 128 * MB
    assert host_fs.exists(libs_path("/snap/t1"))
    assert snap.op.result.localstore_bytes == 128 * MB
    assert snap.op.result.phases["pausing"] > 0


def test_pause_blocks_new_offload_calls_until_resume():
    server = XeonPhiServer()
    env = launch(server)
    coiproc, buf = env["coiproc"], env["buf"]
    snap = snapify_t(snapshot_path="/snap/t2", coiproc=coiproc)
    times = {}

    def app_call(sim):
        r = yield from coiproc.run_function("step", {"buf": buf.buf_id})
        times["call_done"] = sim.now
        times["result"] = r

    def driver(sim):
        yield from snapify_pause(snap)
        times["paused"] = sim.now
        sim.spawn(app_call(sim))
        yield sim.timeout(2.0)
        times["pre_resume"] = sim.now
        yield from snapify_resume(snap)
        yield sim.timeout(1.0)

    server.run(driver(server.sim))
    assert times["call_done"] > times["pre_resume"]
    assert times["result"] == 7


def test_capture_is_nonblocking_and_wait_joins():
    server = XeonPhiServer()
    env = launch(server)
    coiproc = env["coiproc"]
    snap = snapify_t(snapshot_path="/snap/t3", coiproc=coiproc)
    times = {}

    def driver(sim):
        yield from snapify_pause(snap)
        t0 = sim.now
        yield from snapify_capture(snap, terminate=False)
        times["capture_returned"] = sim.now - t0
        yield from snapify_wait(snap)
        times["wait_done"] = sim.now - t0
        yield from snapify_resume(snap)

    server.run(driver(server.sim))
    # Non-blocking: returns in microseconds; the wait takes real time.
    assert times["capture_returned"] < 0.01
    assert times["wait_done"] > times["capture_returned"]
    assert server.host_os.fs.stat(context_path("/snap/t3")).size == snap.op.result.image_bytes
    assert coiproc.offload_proc.alive  # terminate=False


def test_capture_requires_pause_first():
    server = XeonPhiServer()
    env = launch(server)
    snap = snapify_t(snapshot_path="/snap/t4", coiproc=env["coiproc"])

    def driver(sim):
        from repro.snapify import SnapifyError

        with pytest.raises(SnapifyError):
            yield from snapify_capture(snap, terminate=False)
        return "ok"

    assert server.run(driver(server.sim)) == "ok"


def test_capture_with_terminate_kills_offload_as_expected_exit():
    server = XeonPhiServer()
    env = launch(server)
    coiproc = env["coiproc"]
    snap = snapify_t(snapshot_path="/snap/t5", coiproc=coiproc)

    def driver(sim):
        yield from snapify_pause(snap)
        yield from snapify_capture(snap, terminate=True)
        yield from snapify_wait(snap)
        yield sim.timeout(0.01)

    server.run(driver(server.sim))
    assert not coiproc.offload_proc.alive
    assert coiproc.dead
    daemon = COIDaemon.of(server.node.phis[0])
    # Snapify's bookkeeping prevents the §3 misclassification hazard.
    assert daemon.entries[coiproc.offload_proc.pid].state == "terminated"


def test_monitor_thread_lifecycle():
    """The daemon's monitor thread exists only while requests are active."""
    server = XeonPhiServer()
    env = launch(server)
    coiproc = env["coiproc"]
    daemon = COIDaemon.of(server.node.phis[0])

    def driver(sim):
        snap = snapify_t(snapshot_path="/snap/t6", coiproc=coiproc)
        yield from snapify_pause(snap)
        svc = SnapifyService.of(daemon)
        assert svc.monitor_running
        yield from snapify_resume(snap)
        yield sim.timeout(0.01)
        assert not svc.monitor_running
        # A second cycle spawns a fresh monitor thread.
        snap2 = snapify_t(snapshot_path="/snap/t6b", coiproc=coiproc)
        yield from snapify_pause(snap2)
        yield from snapify_resume(snap2)
        yield sim.timeout(0.01)
        return SnapifyService.of(daemon).monitor_spawn_count

    assert server.run(driver(server.sim)) == 2


def test_snapshot_during_inflight_function_is_consistent():
    """The §4.1 case-4 guarantee: a snapshot taken while an offload function
    executes captures a state from which the function completes exactly once."""
    server = XeonPhiServer()
    env = launch(server)
    coiproc, buf, host_proc = env["coiproc"], env["buf"], env["host_proc"]
    out = {}

    def driver(sim):
        seq = yield from coiproc.start_function("slow", {"buf": buf.buf_id})
        yield sim.timeout(0.3)  # mid-execution (duration 1.0)
        snap = snapify_t(snapshot_path="/snap/t7", coiproc=coiproc)
        yield from snapify_pause(snap)
        yield from snapify_capture(snap, terminate=True)  # swap-out style
        yield from snapify_wait(snap)
        # Restore on the OTHER card and resume.
        new = yield from snapify_restore(snap, server.engine(1), host_proc)
        yield from snapify_resume(snap)
        result = yield new.wait_result(seq)
        out["result"] = result
        out["card_store"] = new.offload_proc.store.get("acc")
        out["device"] = new.offload_proc.os

    server.run(driver(server.sim))
    # Effect applied exactly once: acc == 7, result == 7.
    assert out["result"] == 7
    assert out["card_store"] == 7
    assert out["device"] is server.phi_os(1)


def test_restore_reregisters_buffers_with_address_translation():
    server = XeonPhiServer()
    env = launch(server)
    coiproc, buf, host_proc = env["coiproc"], env["buf"], env["host_proc"]
    old_offset = buf.rdma_offset

    def driver(sim):
        snap = snapify_t(snapshot_path="/snap/t8", coiproc=coiproc)
        yield from snapify_pause(snap)
        yield from snapify_capture(snap, terminate=True)
        yield from snapify_wait(snap)
        new = yield from snapify_restore(snap, server.engine(1), host_proc)
        yield from snapify_resume(snap)
        # The stale handle's offset now translates to a fresh window.
        assert new.translate_offset(old_offset) != old_offset
        # RDMA through the old handle object still works.
        yield from new.buffer_write(buf, payload=99)
        data = yield from new.buffer_read(buf)
        return data

    assert server.run(driver(server.sim)) == 99


def test_restore_preserves_local_store_content():
    server = XeonPhiServer()
    env = launch(server, buffer_mb=32)
    coiproc, buf, host_proc = env["coiproc"], env["buf"], env["host_proc"]

    def driver(sim):
        yield from coiproc.buffer_write(buf, payload={"tensor": [1, 2, 3]})
        snap = snapify_t(snapshot_path="/snap/t9", coiproc=coiproc)
        yield from snapify_pause(snap)
        yield from snapify_capture(snap, terminate=True)
        yield from snapify_wait(snap)
        new = yield from snapify_swapin_helper(snap, server, host_proc)
        data = yield from new.buffer_read(new.buffers[buf.buf_id])
        return data

    def snapify_swapin_helper(snap, server, host_proc):
        new = yield from snapify_restore(snap, server.engine(0), host_proc)
        yield from snapify_resume(snap)
        return new

    assert server.run(driver(server.sim)) == {"tensor": [1, 2, 3]}


def test_rdma_with_stale_offset_and_no_table_fails():
    """Ablation of the (old, new) address table: without translation, RDMA
    against a pre-restore offset is rejected by SCIF."""
    server = XeonPhiServer()
    env = launch(server)
    coiproc, buf, host_proc = env["coiproc"], env["buf"], env["host_proc"]

    def driver(sim):
        snap = snapify_t(snapshot_path="/snap/t10", coiproc=coiproc)
        yield from snapify_pause(snap)
        yield from snapify_capture(snap, terminate=True)
        yield from snapify_wait(snap)
        new = yield from snapify_restore(snap, server.engine(0), host_proc)
        yield from snapify_resume(snap)
        new.rdma_address_map.clear()  # sabotage the lookup table
        from repro.scif import ScifError

        with pytest.raises(ScifError, match="unregistered"):
            yield from new.buffer_write(buf, payload=1)
        return "ok"

    assert server.run(driver(server.sim)) == "ok"


def test_resume_after_plain_capture_continues_execution():
    server = XeonPhiServer()
    env = launch(server)
    coiproc, buf = env["coiproc"], env["buf"]

    def driver(sim):
        r1 = yield from coiproc.run_function("step", {"buf": buf.buf_id})
        snap = snapify_t(snapshot_path="/snap/t11", coiproc=coiproc)
        yield from snapify_pause(snap)
        yield from snapify_capture(snap, terminate=False)
        yield from snapify_wait(snap)
        yield from snapify_resume(snap)
        r2 = yield from coiproc.run_function("step", {"buf": buf.buf_id})
        return r1, r2

    assert server.run(driver(server.sim)) == (7, 14)
