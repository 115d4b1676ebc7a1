"""Failure injection inside the Snapify protocol itself: the offload
process dying mid-pause / mid-capture must surface as errors, not hangs —
and migration's direct device-to-device local-store path must work.
"""

from dataclasses import replace

import pytest

from repro.apps import OPENMP_BENCHMARKS, OffloadApplication
from repro.coi import COIDaemon, COIEngine, OffloadBinary, OffloadFunction
from repro.hw import MB
from repro.snapify import (
    SnapifyError,
    snapify_capture,
    snapify_pause,
    snapify_t,
    snapify_wait,
)
from repro.snapify.constants import localstore_path
from repro.snapify.monitor import SnapifyService
from repro.snapify.usecases import snapify_migration, snapify_swapout
from repro.testbed import XeonPhiServer


def make_binary():
    return OffloadBinary(
        "f.so", 4 * MB,
        {"work": OffloadFunction("work", duration=0.4,
                                 effect=lambda ctx, args: ctx.store.setdefault("done", True))},
    )


def launch(server, buffer_mb=64):
    out = {}

    def setup(sim):
        host = yield from server.host_os.spawn_process("app", image_size=4 * MB)
        coiproc = yield from COIEngine(server.node, 0).process_create(host, make_binary())
        buf = yield from coiproc.buffer_create(buffer_mb * MB)
        out.update(host=host, coiproc=coiproc, buf=buf)

    server.run(setup(server.sim))
    return out


def test_offload_death_during_capture_raises_not_hangs():
    for crash_after in (0.002, 0.01):
        server = XeonPhiServer()
        env = launch(server)
        coiproc = env["coiproc"]
        svc = SnapifyService.of(COIDaemon.of(server.node.phis[0]))

        def driver(sim):
            yield from snapify_pause(snap := snapify_t("/f/s1", coiproc=coiproc))
            yield from snapify_capture(snap, terminate=False)
            # The card process crashes while BLCR streams the context out,
            # and while the daemon's monitor sleeps with nothing to relay:
            # the exit itself must wake it.
            yield sim.timeout(crash_after)
            assert svc.wake is not None
            coiproc.offload_proc.terminate(code=139)
            with pytest.raises(SnapifyError, match="died during"):
                yield from snapify_wait(snap)
            return "surfaced"

        assert server.run(driver(server.sim)) == "surfaced"


def test_pause_on_dead_process_raises_immediately():
    server = XeonPhiServer()
    env = launch(server)
    coiproc = env["coiproc"]

    def driver(sim):
        coiproc.offload_proc.terminate(code=139)
        coiproc.mark_dead()
        with pytest.raises(SnapifyError, match="no live offload process"):
            yield from snapify_pause(snapify_t("/f/s2", coiproc=coiproc))
        return "ok"

    assert server.run(driver(server.sim)) == "ok"


def test_migration_stages_local_store_on_target_card():
    """The direct device-to-device path: during the pause of a migration,
    the local store lands on the TARGET card's RAM-FS, not the host FS."""
    server = XeonPhiServer()
    env = launch(server, buffer_mb=256)
    coiproc, host = env["coiproc"], env["host"]
    probes = {}

    def driver(sim):
        snap = yield from snapify_swapout(
            "/mig/direct", coiproc, localstore_node=server.node.phis[1].scif_node_id
        )
        # After swap-out: staging file on mic1, NOT on the host.
        probes["on_host"] = server.host_os.fs.exists(localstore_path("/mig/direct"))
        probes["on_mic1"] = server.phi_os(1).fs.exists(localstore_path("/mig/direct"))
        probes["mic1_ramfs"] = server.node.phis[1].memory.by_category.get("ramfs", 0)
        from repro.snapify.usecases import snapify_swapin

        new = yield from snapify_swapin(snap, server.engine(1))
        # Staging copy is released after the buffers are recreated.
        probes["staging_after"] = server.phi_os(1).fs.exists(
            localstore_path("/mig/direct"))
        data = yield from new.buffer_read(new.buffers[env["buf"].buf_id])
        return new

    new = server.run(driver(server.sim))
    assert probes["on_host"] is False
    assert probes["on_mic1"] is True
    assert probes["mic1_ramfs"] >= 256 * MB
    assert probes["staging_after"] is False
    assert new.offload_proc.os is server.phi_os(1)


def test_full_migration_with_direct_path_is_correct():
    server = XeonPhiServer()
    profile = replace(OPENMP_BENCHMARKS["CG"], iterations=25)
    app = OffloadApplication(server, profile)

    def driver(sim):
        yield from app.launch()
        yield sim.timeout(0.5)
        gate = app.host_proc.runtime["app_gate"]
        yield gate.acquire(owner="test")
        try:
            new, _ = yield from snapify_migration(app.coiproc, server.engine(1),
                                                  snapshot_path="/mig/full")
            app.host_proc.runtime["coi_handle"] = new
        finally:
            gate.release()
        yield app.host_proc.main_thread.done

    server.run(driver(server.sim))
    assert app.verify()
    # The direct path: the local store never touched the host FS.
    assert not server.host_os.fs.exists(localstore_path("/mig/full"))


def test_direct_path_changes_pause_restore_split():
    """Migration (direct local store) shifts cost out of the restore stage
    relative to a host-staged swap cycle of the same process size."""
    # Host-staged swap cycle.
    server1 = XeonPhiServer()
    env1 = launch(server1, buffer_mb=512)

    def swap_cycle(sim):
        snap = yield from snapify_swapout("/cmp/swap", env1["coiproc"])
        from repro.snapify.usecases import snapify_swapin

        yield from snapify_swapin(snap, server1.engine(1))
        return snap.op.result

    swap_in = server1.run(swap_cycle(server1.sim))

    # Direct migration.
    server2 = XeonPhiServer()
    env2 = launch(server2, buffer_mb=512)

    def migrate(sim):
        new, (_, swapin) = yield from snapify_migration(
            env2["coiproc"], server2.engine(1), snapshot_path="/cmp/mig")
        return swapin

    mig_in = server2.run(migrate(server2.sim))
    # Restore is cheaper with the local store already on the target card.
    assert mig_in.restore_s < swap_in.restore_s
