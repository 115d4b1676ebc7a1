"""Checkpoint-content plugins: the registry, write-plan cost accounting,
the four resource plugins (sockets, RAM-FS files, signals, RDMA windows),
incremental carriage, the bounded metadata scan, and the agent's drain
phase."""

import math

import pytest

from repro.blcr import (
    BASE_SMALL_RECORDS,
    BLCRError,
    BULK_CHUNK,
    ChainError,
    CheckpointPlugin,
    PluginError,
    PluginImage,
    PluginRegistry,
    ProcessContext,
    RECORDS_PER_THREAD,
    RdmaMigrateError,
    SocketRestoreError,
    capture_incremental,
    cr_checkpoint,
    cr_restart,
    cr_restore_context,
    reassemble,
    register_standard_plugins,
    replay_rdma_windows,
)
from repro.blcr.plugins import RDMA_PENDING_KEY
from repro.hw import MB, HardwareParams, ServerNode
from repro.osim import RegularFileFD, boot_node
from repro.osim import signals as sig
from repro.osim.sockets import UnixSocket
from repro.scif.endpoint import ScifNetwork
from repro.scif.registry import scif_register
from repro.sim import Simulator


def make_env():
    sim = Simulator()
    node = ServerNode(sim, HardwareParams())
    host_os, phi_oses = boot_node(node)
    return sim, node, host_os, phi_oses


def run(sim, gen):
    t = sim.spawn(gen)
    sim.run()
    assert t.done.ok, t.done.exception
    return t.done.value


def spawn_bare(os_, name="plugged", image=4 * MB):
    """Sub-generator: a not-started process with a heap and a store."""
    proc = yield from os_.spawn_process(name, image_size=image, start=False)
    proc.map_region("heap", 2 * MB, data=["heap-data"])
    proc.store["who"] = name
    return proc


def roundtrip(host_os, proc, dst_os, path="/t/plug.ctx"):
    """Sub-generator: checkpoint ``proc`` to the host FS, kill it, restart
    on ``dst_os``; returns the restored process."""
    wfd = RegularFileFD(proc.sim, host_os.fs, path, "w")
    yield from cr_checkpoint(proc, wfd)
    wfd.close()
    proc.terminate(code=0)
    rfd = RegularFileFD(proc.sim, host_os.fs, path, "r")
    restored = yield from cr_restart(dst_os, rfd, name="restored", start=False)
    rfd.close()
    return restored


# ---------------------------------------------------------------------------
# Registry + accounting
# ---------------------------------------------------------------------------


def test_default_registry_is_builtins_only_and_plan_is_legacy():
    sim, node, host, phis = make_env()
    registry = PluginRegistry.of(phis[0])
    assert len(registry) == 0
    assert PluginRegistry.of(phis[0]) is registry  # cached per OS

    def driver():
        proc = yield from spawn_bare(phis[0])
        return proc, ProcessContext.capture(proc)

    proc, ctx = run(sim, driver())
    # The core image is copied by capture itself; with no plugin registered
    # nothing rides as a plugin image and the record count is the
    # pre-plugin formula — the golden trace depends on this.
    assert [r.name for r in ctx.regions] == list(proc.regions)
    assert ctx.store == proc.store and ctx.store is not proc.store
    assert ctx.plugin_images == []
    assert ctx.n_small_records == (BASE_SMALL_RECORDS
                                   + RECORDS_PER_THREAD * ctx.nthreads
                                   + len(ctx.regions))


def test_register_replaces_by_name():
    sim, node, host, phis = make_env()
    registry = PluginRegistry.of(phis[0])

    class P(CheckpointPlugin):
        name = "probe"

    first, second = P(), P()
    registry.register(first)
    registry.register(second)
    assert registry.get("probe") is second
    assert sum(1 for p in registry if p.name == "probe") == 1


def test_unknown_plugin_image_is_a_typed_error():
    registry = PluginRegistry()
    with pytest.raises(PluginError, match="no such plugin registered"):
        registry.get("martian")


def test_plugin_images_feed_the_write_plan():
    sim, node, host, phis = make_env()

    def driver():
        proc = yield from spawn_bare(phis[0])
        return ProcessContext.capture(proc)

    ctx = run(sim, driver())
    small0, bulk0, plan0 = ctx.n_small_records, ctx.bulk_bytes, ctx.write_plan()
    ctx.plugin_images.append(PluginImage("x", records=3, bulk_bytes=9 * MB))
    assert ctx.n_small_records == small0 + 3
    assert ctx.bulk_bytes == bulk0 + 9 * MB
    plan = ctx.write_plan()
    assert len(plan) - len(plan0) == 3 + math.ceil(9 * MB / BULK_CHUNK)
    # Plugin bulk rides the tail of the plan in image order.
    assert plan[-1][0] == 9 * MB - 2 * BULK_CHUNK
    assert ctx.plugin_payload("x") is ctx.plugin_images[0].payload


# ---------------------------------------------------------------------------
# The acceptance round-trip: socket pair + file offset + pending signal,
# restored together on ANOTHER card.
# ---------------------------------------------------------------------------


def test_socket_file_signal_roundtrip_to_another_card():
    sim, node, host, phis = make_env()
    src, dst = phis[0], phis[1]
    register_standard_plugins(src)
    register_standard_plugins(dst)

    def handler(p, signum):
        p.store["sig_count"] = p.store.get("sig_count", 0) + 1
        return
        yield  # pragma: no cover - generator form

    def driver():
        proc = yield from spawn_bare(src)
        # 1. an open socket pair
        a, b = UnixSocket.pair(sim, 400 * MB, name="pp")
        proc.register_fd(a)
        proc.register_fd(b)
        # 2. a RAM-FS file read to its middle
        yield from src.fs.write("/t/data", 5 * 4096,
                                payload=[f"r{i}" for i in range(5)])
        fd = RegularFileFD(sim, src.fs, "/t/data", "r")
        proc.register_fd(fd)
        for i in range(2):
            assert (yield from fd.read(4096)) == f"r{i}"
        # 3. a blocked signal with two pending instances
        proc.install_signal_handler(sig.SIGUSR1, handler)
        proc.block_signal(sig.SIGUSR1)
        proc.deliver_signal(sig.SIGUSR1)
        proc.deliver_signal(sig.SIGUSR1)

        restored = yield from roundtrip(host, proc, dst)

        socks = restored.runtime["restored_sockets"]
        ra, rb = socks["pp.a"], socks["pp.b"]
        yield from ra.write(4096, record="ping")
        assert (yield from rb.read()) == "ping"

        rfile = restored.runtime["restored_files"]["/t/data"]
        assert dst.fs.exists("/t/data")  # content migrated inside the image
        assert rfile._read_cursor == 2
        assert (yield from rfile.read(4096)) == "r2"

        assert restored.pending_signals == [sig.SIGUSR1, sig.SIGUSR1]
        assert sig.SIGUSR1 in restored.blocked_signals
        restored.unblock_signal(sig.SIGUSR1)
        yield sim.timeout(0.01)
        assert restored.store["sig_count"] == 2
        assert restored.store["who"] == "plugged"
        return restored

    run(sim, driver())


def test_socket_orphan_half_refuses_restore():
    sim, node, host, phis = make_env()
    register_standard_plugins(phis[0])

    def driver():
        proc = yield from spawn_bare(phis[0])
        other = yield from phis[0].spawn_process("other", image_size=MB,
                                                 start=False)
        a, b = UnixSocket.pair(sim, 400 * MB, name="split")
        proc.register_fd(a)   # only one half is ours: the peer lives in
        other.register_fd(b)  # another process and cannot be rebuilt
        wfd = RegularFileFD(sim, host.fs, "/t/orphan.ctx", "w")
        yield from cr_checkpoint(proc, wfd)
        wfd.close()
        proc.terminate(code=0)
        rfd = RegularFileFD(sim, host.fs, "/t/orphan.ctx", "r")
        with pytest.raises(SocketRestoreError, match="cannot be reconnected"):
            yield from cr_restart(phis[0], rfd, start=False)

    run(sim, driver())


def test_listener_rebinds_on_restore_target():
    sim, node, host, phis = make_env()
    register_standard_plugins(phis[0])
    register_standard_plugins(phis[1])

    def driver():
        proc = yield from spawn_bare(phis[0])
        phis[0].sockets.listen("@svc", owner=proc)
        restored = yield from roundtrip(host, proc, phis[1])
        listener = restored.runtime["restored_sockets"]["listen:@svc"]
        assert phis[1].sockets.bound["@svc"] is listener
        assert listener.owner is restored
        # and the name is actually live: a connect on the target succeeds
        client = yield from phis[1].sockets.connect("@svc")
        assert client.address == "@svc"

    run(sim, driver())


# ---------------------------------------------------------------------------
# RDMA windows
# ---------------------------------------------------------------------------


def _rdma_proc(sim, node, host, src):
    proc = yield from spawn_bare(src, name="rdma")
    net = ScifNetwork.of(node)
    net.listen(host, 4242)
    ep = yield from net.connect(src, 0, 4242, proc=proc)
    yield from scif_register(ep, MB)
    yield from scif_register(ep, 2 * MB)
    return proc


def test_rdma_windows_replay_on_same_card():
    sim, node, host, phis = make_env()
    register_standard_plugins(phis[0])

    def driver():
        proc = yield from _rdma_proc(sim, node, host, phis[0])
        old_offsets = sorted(
            off for fd in proc.open_fds
            for off in getattr(fd, "windows", {})
        )
        restored = yield from roundtrip(host, proc, phis[0])
        pending = restored.runtime[RDMA_PENDING_KEY]
        assert [w["nbytes"] for w in pending] == [MB, 2 * MB]
        ep2 = yield from ScifNetwork.of(node).connect(phis[0], 0, 4242,
                                                      proc=restored)
        table = yield from replay_rdma_windows(restored, ep2)
        assert sorted(table) == old_offsets
        assert sum(ep2.windows.values()) == 3 * MB
        assert RDMA_PENDING_KEY not in restored.runtime
        assert restored.runtime["rdma_address_map"] == table
        # replay is idempotent once drained
        assert (yield from replay_rdma_windows(restored, ep2)) == table

    run(sim, driver())


def test_rdma_windows_refuse_cross_card_migration():
    sim, node, host, phis = make_env()
    register_standard_plugins(phis[0])
    register_standard_plugins(phis[1])

    def driver():
        proc = yield from _rdma_proc(sim, node, host, phis[0])
        wfd = RegularFileFD(sim, host.fs, "/t/rdma.ctx", "w")
        yield from cr_checkpoint(proc, wfd)
        wfd.close()
        proc.terminate(code=0)
        rfd = RegularFileFD(sim, host.fs, "/t/rdma.ctx", "r")
        with pytest.raises(RdmaMigrateError, match="cannot migrate"):
            yield from cr_restart(phis[1], rfd, start=False)

    run(sim, driver())


# ---------------------------------------------------------------------------
# Bounded metadata scan (regression for the unbounded 100k-read loop)
# ---------------------------------------------------------------------------


def test_metadata_scan_bound_raises_typed_diagnostics():
    sim, node, host, phis = make_env()

    def driver():
        yield from host.fs.write("/t/garbage", 5 * 256,
                                 payload=["junk"] * 5)
        rfd = RegularFileFD(sim, host.fs, "/t/garbage", "r")
        with pytest.raises(BLCRError) as exc:
            yield from cr_restart(phis[0], rfd, start=False)
        msg = str(exc.value)
        assert "scan limit" in msg and "not a BLCR context" in msg

    run(sim, driver())
    # The bound derives from the file, not a hardwired huge constant: the
    # error reports a handful of reads, not 100 000.
    # (5 records + the derived slack, never more than the descriptor holds)


# ---------------------------------------------------------------------------
# Incremental chains carry plugin images
# ---------------------------------------------------------------------------


def test_incremental_chain_carries_and_checks_plugin_images():
    sim, node, host, phis = make_env()
    register_standard_plugins(phis[0])

    def driver():
        proc = yield from spawn_bare(phis[0])
        proc.block_signal(sig.SIGUSR2)
        proc.deliver_signal(sig.SIGUSR2)
        for region in proc.regions.values():
            region.enable_tracking()
        images = [capture_incremental(proc, "/t/pchain")]
        proc.region("heap").write(0, 4096)
        images.append(capture_incremental(proc, "/t/pchain"))
        return proc, images

    proc, images = run(sim, driver())
    assert [pi.plugin for pi in images[0].plugin_images] == ["signals"]
    # Deltas re-freeze plugin state wholesale (no dirty bitmap for them).
    assert [pi.plugin for pi in images[1].plugin_images] == ["signals"]
    ctx = reassemble(images, verify=True)
    assert [pi.plugin for pi in ctx.plugin_images] == ["signals"]
    assert ctx.plugin_payload("signals")["pending"] == [sig.SIGUSR2]

    def restore():
        restored = yield from cr_restore_context(phis[0], ctx, start=False)
        assert restored.pending_signals == [sig.SIGUSR2]
        assert sig.SIGUSR2 in restored.blocked_signals

    run(sim, restore())

    # Tampering with a plugin payload breaks the chain CRC.
    images[1].plugin_images[0].payload["pending"].append(sig.SIGUSR1)
    with pytest.raises(ChainError, match="CRC mismatch"):
        reassemble(images, verify=True)


# ---------------------------------------------------------------------------
# The agent's drain phase
# ---------------------------------------------------------------------------


def test_agent_invokes_drain_hooks_at_pause():
    from repro.snapify import snapify_pause, snapify_resume, snapify_t
    from repro.testbed import XeonPhiServer, offload_app

    server = XeonPhiServer()
    sim = server.sim
    app = offload_app(server, "MC", iterations=4)

    class DrainProbe(CheckpointPlugin):
        name = "drain_probe"

        def pre_pause(self, proc):
            proc.store["drained_at"] = proc.sim.now
            yield proc.sim.timeout(1e-6)

        def pre_checkpoint(self, proc):
            return None

    PluginRegistry.of(server.phi_os(0)).register(DrainProbe())

    def driver():
        yield from app.launch()
        yield sim.timeout(0.2)
        snap = snapify_t("/t/drain", coiproc=app.coiproc)
        yield from snapify_pause(snap)
        drained_at = app.coiproc.offload_proc.store.get("drained_at")
        yield from snapify_resume(snap)
        yield app.host_proc.main_thread.done
        return drained_at

    drained_at = server.run(driver(), name="driver")
    sim.run()
    assert drained_at is not None and drained_at > 0
    assert app.verify()


def test_standard_plugins_add_under_two_percent_kernel_events():
    """The plugin tax on a fault-free checkpoint cycle: registering every
    standard plugin on both cards (the app owns few of their resources, so
    most decline) adds < 2% scheduled kernel events — registry walk, drain
    phase and the signal image together. That image is a metadata record
    of the offload context; Snapify-IO sends the record prologue as one
    burst, so it costs no kernel events of its own and the context, not
    the event count, shows the plugins ran."""
    from repro.snapify import checkpoint_offload_app, snapify_t
    from repro.snapify.constants import context_path
    from repro.testbed import XeonPhiServer, offload_app

    def cycle_events(with_plugins):
        server = XeonPhiServer()
        sim = server.sim
        if with_plugins:
            register_standard_plugins(server.phi_os(0))
            register_standard_plugins(server.phi_os(1))
        app = offload_app(server, "MC", iterations=20)

        def driver():
            yield from app.launch()
            yield sim.sleep(0.3)
            yield from checkpoint_offload_app(snapify_t("/t/tax", coiproc=app.coiproc))
            yield app.host_proc.main_thread.done

        server.run(driver(), name="driver")
        assert app.verify()
        (ctx,) = server.host_os.fs.stat(context_path("/t/tax")).payload
        return next(sim._seq), ctx

    (off, ctx_off), (on, ctx_on) = cycle_events(False), cycle_events(True)
    assert ctx_off.plugin_images == []
    assert [image.plugin for image in ctx_on.plugin_images] == ["signals"]
    assert ctx_on.n_small_records == ctx_off.n_small_records + 1
    assert on < 1.02 * off


# ---------------------------------------------------------------------------
# Fuzz scenarios exist and hold
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["socket_restore", "ramfs_offsets",
                                  "signal_pending", "rdma_migrate"])
def test_plugin_fuzz_scenarios_hold(mode):
    from repro.check.scenarios import run_scenario, scenario_names

    assert f"plugin:{mode}" in scenario_names()
    for seed in (11, 12):  # one of each restore-target parity
        result = run_scenario(f"plugin:{mode}", seed=seed)
        assert result.ok, result.summary()
