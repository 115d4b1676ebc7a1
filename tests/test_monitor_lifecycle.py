"""Lifecycle tests for the daemon's Snapify monitor thread.

The paper's rule: "Whenever a request is received and no monitor thread
exists, the daemon creates a new monitor thread"; the thread exits when the
active-request list drains. The sequential single-request path is covered in
test_snapify_protocol; these tests pin down the edges around it — no thread
before any request, ONE shared thread across concurrent requests, exit only
on full drain, and re-creation afterwards.
"""

from repro.coi import COIDaemon, OffloadBinary, OffloadFunction
from repro.hw import MB
from repro.snapify import snapify_pause, snapify_resume, snapify_t
from repro.snapify.monitor import SnapifyService
from repro.testbed import XeonPhiServer


def make_binary(name="mon_test.so"):
    return OffloadBinary(
        name=name,
        image_size=8 * MB,
        functions={"step": OffloadFunction("step", duration=0.05)},
    )


def launch_two(server):
    """Two independent offload processes on the same card (same daemon)."""
    out = {}

    def setup(sim):
        for i in range(2):
            host_proc = yield from server.host_os.spawn_process(
                f"app{i}", image_size=4 * MB
            )
            coiproc = yield from server.engine(0).process_create(
                host_proc, make_binary(f"mon_test{i}.so")
            )
            buf = yield from coiproc.buffer_create(16 * MB)
            yield from coiproc.buffer_write(buf, payload=1)
            out[i] = coiproc

    server.run(setup(server.sim))
    return out


def test_no_monitor_before_first_request():
    server = XeonPhiServer()
    launch_two(server)
    svc = SnapifyService.of(COIDaemon.of(server.node.phis[0]))
    assert not svc.monitor_running
    assert svc.monitor_spawn_count == 0
    assert svc.active == {}


def test_concurrent_requests_share_one_monitor_thread():
    """Two offload processes paused at once: the daemon's active list holds
    both requests, but only ONE monitor thread polls for them — and it exits
    only when the LAST request drains."""
    server = XeonPhiServer()
    procs = launch_two(server)
    svc = SnapifyService.of(COIDaemon.of(server.node.phis[0]))

    def driver(sim):
        a = snapify_t(snapshot_path="/snap/m1a", coiproc=procs[0])
        b = snapify_t(snapshot_path="/snap/m1b", coiproc=procs[1])
        ta = sim.spawn(snapify_pause(a), name="pause-a")
        tb = sim.spawn(snapify_pause(b), name="pause-b")
        yield sim.all_of([ta.done, tb.done])
        assert len(svc.active) == 2
        assert svc.monitor_running
        assert svc.monitor_spawn_count == 1

        # Draining ONE request leaves the monitor alive for the other.
        yield from snapify_resume(a)
        yield sim.timeout(0.01)
        assert len(svc.active) == 1
        assert svc.monitor_running
        assert svc.monitor_spawn_count == 1

        # Draining the last request lets the monitor exit.
        yield from snapify_resume(b)
        yield sim.timeout(0.01)
        assert svc.active == {}
        assert not svc.monitor_running
        return "ok"

    assert server.run(driver(server.sim)) == "ok"


def test_request_after_drain_recreates_monitor():
    server = XeonPhiServer()
    procs = launch_two(server)
    svc = SnapifyService.of(COIDaemon.of(server.node.phis[0]))

    def driver(sim):
        for cycle in range(3):
            snap = snapify_t(snapshot_path=f"/snap/m2_{cycle}", coiproc=procs[0])
            yield from snapify_pause(snap)
            assert svc.monitor_running
            yield from snapify_resume(snap)
            yield sim.timeout(0.01)
            assert not svc.monitor_running
        return svc.monitor_spawn_count

    assert server.run(driver(server.sim)) == 3


def test_monitor_lifecycle_is_traced():
    """monitor.spawn / monitor.exit trace records and the spawn counter keep
    the lifecycle observable without reaching into daemon internals."""
    server = XeonPhiServer()
    procs = launch_two(server)
    from repro.obs import MetricsRegistry

    def driver(sim):
        with sim.trace.capture():
            snap = snapify_t(snapshot_path="/snap/m3", coiproc=procs[0])
            yield from snapify_pause(snap)
            yield from snapify_resume(snap)
            yield sim.timeout(0.01)

    server.run(driver(server.sim))
    trace = server.sim.trace
    assert len(trace.find("monitor.spawn")) == 1
    assert len(trace.find("monitor.exit")) == 1
    assert trace.first_time("monitor.spawn") < trace.first_time("monitor.exit")
    reg = MetricsRegistry.of(server.sim)
    assert reg.counter("snapify.monitor.spawns").value == 1
    assert reg.counter("snapify.monitor.relays").value >= 2  # complete + ack


def test_stuck_request_drains_the_heap_and_is_flagged():
    """A paused app that is never resumed leaves its request active. The
    monitor sleeps on its wake event instead of polling, so the heap drains
    long before the horizon and the oracle names the stuck request."""
    from repro.check import check_all

    server = XeonPhiServer()
    procs = launch_two(server)
    svc = SnapifyService.of(COIDaemon.of(server.node.phis[0]))
    server.run(snapify_pause(snapify_t(snapshot_path="/snap/stuck", coiproc=procs[0])))
    assert len(svc.active) == 1 and svc.monitor_running

    horizon = server.now + 1000.0
    assert server.sim.run(until=horizon) < horizon
    assert not server.sim._heap
    [monitor] = [t for t in server.sim.threads.values()
                 if t.name.endswith("/snapify-monitor") and t.alive]
    assert svc.wake is not None and monitor.blocked_on is svc.wake
    assert "monitor_quiescent" in {v.oracle for v in check_all(server)}
