"""Concurrency stress: several applications, overlapping Snapify operations,
and concurrent host threads hammering one pipeline — all under the drain
protocol, all verifying their results."""

import pytest

from repro.apps import OPENMP_BENCHMARKS, expected_checksum
from repro.coi import COIEngine, OffloadBinary, OffloadFunction
from repro.hw import MB
from repro.snapify import checkpoint_offload_app, snapify_t
from repro.snapify.usecases import snapify_migration
from repro.testbed import XeonPhiServer, offload_app


def run_benchmark(server, name, iterations):
    """Run the named catalogue benchmark to completion on ``server``."""
    app = offload_app(server, name, iterations=iterations)
    server.run(app.run_to_completion())
    return app


def test_openmp_helpers():
    server = XeonPhiServer()
    app = run_benchmark(server, "MC", iterations=8)
    assert app.finished
    assert app.verify()
    assert len(OPENMP_BENCHMARKS) == 8
    with pytest.raises(KeyError):
        offload_app(server, "NOPE")


def test_three_apps_with_interleaved_snapshots():
    """Three tenants across two cards; each gets checkpointed or migrated
    while the others keep running; all three finish correctly."""
    server = XeonPhiServer()
    apps = [
        offload_app(server, "MC", iterations=60, device=0),
        offload_app(server, "KM", iterations=400, device=0),
        offload_app(server, "MD", iterations=1200, device=1),
    ]

    def driver(sim):
        for app in apps:
            yield from app.launch()
        yield sim.timeout(0.4)

        # Checkpoint app 0 while 1 and 2 run.
        snap = snapify_t(snapshot_path="/stress/a0", coiproc=apps[0].coiproc)
        yield from checkpoint_offload_app(snap)

        # Migrate app 1 from mic0 to mic1 under the application gate.
        gate = apps[1].host_proc.runtime["app_gate"]
        yield gate.acquire(owner="stress")
        try:
            new, _ = yield from snapify_migration(
                apps[1].coiproc, server.engine(1), snapshot_path="/stress/a1"
            )
            apps[1].host_proc.runtime["coi_handle"] = new
        finally:
            gate.release()

        # Checkpoint app 2 (on mic1, now shared with app 1).
        snap2 = snapify_t(snapshot_path="/stress/a2", coiproc=apps[2].coiproc)
        yield from checkpoint_offload_app(snap2)

        for app in apps:
            yield app.host_proc.main_thread.done

    server.run(driver(server.sim))
    for app in apps:
        assert app.verify(), app.name


def test_concurrent_host_threads_share_one_pipeline():
    """Multiple host threads issue run-functions on ONE offload process;
    the pipeline serializes them; a pause in the middle blocks and releases
    all of them without loss."""
    server = XeonPhiServer()

    def accum(ctx, args):
        ctx.store["sum"] = ctx.store.get("sum", 0) + args["v"]
        return ctx.store["sum"]

    binary = OffloadBinary("acc.so", 4 * MB,
                           {"add": OffloadFunction("add", 2e-3, accum)})
    out = {"results": []}

    def driver(sim):
        host = yield from server.host_os.spawn_process("multi", image_size=4 * MB)
        coiproc = yield from COIEngine(server.node, 0).process_create(host, binary)

        def caller(sim, k):
            for j in range(10):
                r = yield from coiproc.run_function("add", {"v": 1})
                out["results"].append(r)

        threads = [host.spawn_thread(caller(sim, k), name=f"caller{k}")
                   for k in range(4)]

        # Pause mid-storm; everything must drain and resume.
        yield sim.timeout(0.02)
        from repro.snapify import snapify_pause, snapify_resume

        snap = snapify_t(snapshot_path="/stress/pipe", coiproc=coiproc)
        yield from snapify_pause(snap)
        assert coiproc.channels_empty()
        yield sim.timeout(0.5)
        yield from snapify_resume(snap)

        for t in threads:
            yield t.done
        final = yield from coiproc.run_function("add", {"v": 0})
        return final

    final = server.run(driver(server.sim))
    # 40 increments of 1, exactly once each.
    assert final == 40
    assert sorted(out["results"]) == list(range(1, 41))


def test_full_suite_smoke():
    """Every benchmark in the suite runs (short) and verifies."""
    for name in OPENMP_BENCHMARKS:
        server = XeonPhiServer()
        app = run_benchmark(server, name, iterations=5)
        assert app.verify()
        assert app.host_proc.store["checksum"] == expected_checksum(5)
