"""End-to-end tests of the offload application framework with Snapify."""


from repro.apps import OPENMP_BENCHMARKS, OffloadApplication, expected_checksum
from repro.check.oracles import check_all
from repro.snapify import (
    MIGRATE,
    SWAP_IN,
    SWAP_OUT,
    checkpoint_offload_app,
    restart_offload_app,
    snapify_command,
    snapify_t,
)
from repro.testbed import XeonPhiServer


def small_profile(name="MC", iterations=12):
    from dataclasses import replace

    return replace(OPENMP_BENCHMARKS[name], iterations=iterations)


def test_plain_run_produces_expected_checksum():
    server = XeonPhiServer()
    app = OffloadApplication(server, small_profile(), iterations=10)

    def driver(sim):
        result = yield from app.run_to_completion()
        return result

    result = server.run(driver(server.sim))
    assert result == expected_checksum(10)
    assert app.verify()


def test_snapify_disabled_run_is_faster():
    t = {}
    for enabled in (True, False):
        server = XeonPhiServer()
        app = OffloadApplication(
            server, small_profile("MD"), iterations=200, snapify_enabled=enabled
        )

        def driver(sim):
            t0 = sim.now
            yield from app.run_to_completion()
            return sim.now - t0

        t[enabled] = server.run(driver(server.sim))
        assert app.verify()
    overhead = (t[True] - t[False]) / t[False]
    assert 0 < overhead < 0.10


def test_checkpoint_and_continue_preserves_result():
    server = XeonPhiServer()
    app = OffloadApplication(server, small_profile(), iterations=10)

    def driver(sim):
        yield from app.launch()
        yield sim.timeout(0.5)  # a few iterations in
        snap = snapify_t(snapshot_path="/snap/a1", coiproc=app.coiproc)
        yield from checkpoint_offload_app(snap)
        yield app.host_proc.main_thread.done
        return snap

    snap = server.run(driver(server.sim))
    assert app.verify()
    # All three snapshot components exist on the host FS.
    assert snap.sizes["host_snapshot"] > 0
    assert snap.sizes["offload_snapshot"] > 0
    assert snap.sizes["local_store"] > 0


def test_full_failure_restart_roundtrip():
    """Kill BOTH processes after a checkpoint; restart from the snapshot
    directory alone; the run completes with the right checksum."""
    server = XeonPhiServer()
    app = OffloadApplication(server, small_profile(), iterations=10)
    out = {}

    def driver(sim):
        yield from app.launch()
        yield sim.timeout(0.5)
        snap = snapify_t(snapshot_path="/snap/a2", coiproc=app.coiproc)
        yield from checkpoint_offload_app(snap)
        iter_at_ckpt = None
        # simulate a crash of the whole application some time later
        yield sim.timeout(0.2)
        app.host_proc.terminate(code=1)
        yield sim.timeout(0.05)
        result = yield from restart_offload_app(server.host_os, "/snap/a2", server.engine(0))
        yield result.host_proc.main_thread.done
        out["store"] = result.host_proc.store

    server.run(driver(server.sim))
    assert out["store"]["finished"] is True
    assert out["store"]["checksum"] == expected_checksum(10)


def test_restart_from_checkpoint_taken_mid_setup():
    """A checkpoint taken while the program is still creating its buffers
    restarts into a program that finishes the set-up the snapshot missed."""
    server = XeonPhiServer()
    # SS creates eight large buffers: the host snapshot lands between two
    # of them, with some buffers already on the card.
    app = OffloadApplication(server, small_profile("SS"), iterations=4)

    def driver(sim):
        yield from app.launch()
        while "coi_handle" not in app.host_proc.runtime:
            yield sim.timeout(1e-3)
        snap = snapify_t(snapshot_path="/snap/setup", coiproc=app.coiproc)
        host_ctx = yield from checkpoint_offload_app(snap)
        assert "buf_ids" not in host_ctx.store
        assert 0 < len(host_ctx.store["coi_buffers"]) < app.profile.n_buffers
        app.host_proc.terminate(code=1)
        yield sim.timeout(0.05)
        result = yield from restart_offload_app(server.host_os, "/snap/setup",
                                                server.engine(0))
        app.host_proc = result.host_proc
        yield app.host_proc.main_thread.done

    server.run(driver(server.sim))
    assert app.finished and app.verify()
    buf_ids = app.host_proc.store["buf_ids"]
    assert len(set(buf_ids)) == len(buf_ids) == app.profile.n_buffers
    assert sorted(app.coiproc.buffers) == sorted(buf_ids)
    assert check_all(server) == []


def test_restart_on_other_device_after_failure():
    server = XeonPhiServer()
    app = OffloadApplication(server, small_profile(), iterations=8, device=0)
    out = {}

    def driver(sim):
        yield from app.launch()
        yield sim.timeout(0.4)
        snap = snapify_t(snapshot_path="/snap/a3", coiproc=app.coiproc)
        yield from checkpoint_offload_app(snap)
        app.host_proc.terminate(code=1)
        yield sim.timeout(0.05)
        result = yield from restart_offload_app(server.host_os, "/snap/a3", server.engine(1))
        yield result.host_proc.main_thread.done
        out["store"] = result.host_proc.store
        out["device_os"] = result.coiproc.offload_proc.os

    server.run(driver(server.sim))
    assert out["store"]["checksum"] == expected_checksum(8)
    assert out["device_os"] is server.phi_os(1)


def test_cli_swap_out_and_in():
    server = XeonPhiServer()
    app = OffloadApplication(server, small_profile(), iterations=15)
    out = {}

    def driver(sim):
        yield from app.launch()
        yield sim.timeout(0.3)
        done = snapify_command(app.host_proc, SWAP_OUT, snapshot_path="/swap/s1")
        snap = yield done
        out["offload_alive_during_swap"] = snap.coiproc.offload_proc.alive
        out["card_ramfs"] = server.node.phis[0].memory.by_category.get("ramfs", 0)
        yield sim.timeout(1.0)  # swapped out: no progress
        iter_frozen = app.host_proc.store["iter"]
        yield sim.timeout(1.0)
        assert app.host_proc.store["iter"] == iter_frozen
        done = snapify_command(app.host_proc, SWAP_IN, engine=server.engine(0))
        yield done
        yield app.host_proc.main_thread.done
        return app.host_proc.store["checksum"]

    checksum = server.run(driver(server.sim))
    assert checksum == expected_checksum(15)
    assert out["offload_alive_during_swap"] is False
    # Swap-out released the card memory held by the local store.
    assert out["card_ramfs"] == 0


def test_cli_migration_between_cards():
    server = XeonPhiServer()
    app = OffloadApplication(server, small_profile(), iterations=15)

    def driver(sim):
        yield from app.launch()
        yield sim.timeout(0.3)
        done = snapify_command(app.host_proc, MIGRATE, engine=server.engine(1))
        new = yield done
        assert new.offload_proc.os is server.phi_os(1)
        yield app.host_proc.main_thread.done
        return app.host_proc.store["checksum"]

    assert server.run(driver(server.sim)) == expected_checksum(15)


def test_migration_mid_offload_call_is_exactly_once():
    """Migrate while an offload function is in flight; checksum unchanged."""
    server = XeonPhiServer()
    profile = small_profile("FT", iterations=6)  # 15 ms calls
    app = OffloadApplication(server, profile, iterations=6)

    def driver(sim):
        yield from app.launch()
        # Land the migration inside some iterate() execution window.
        yield sim.timeout(1.283)
        done = snapify_command(app.host_proc, MIGRATE, engine=server.engine(1))
        yield done
        yield app.host_proc.main_thread.done
        return app.host_proc.store["checksum"]

    assert server.run(driver(server.sim)) == expected_checksum(6)


def test_two_apps_share_a_card():
    server = XeonPhiServer()
    app1 = OffloadApplication(server, small_profile(), iterations=6, name="app1")
    app2 = OffloadApplication(server, small_profile("KM"), iterations=6, name="app2")

    def driver(sim):
        yield from app1.launch()
        yield from app2.launch()
        yield app1.host_proc.main_thread.done
        yield app2.host_proc.main_thread.done

    server.run(driver(server.sim))
    assert app1.verify() and app2.verify()
