"""Tests for BLCR: context capture, checkpoint write pattern, restart."""

import pytest

from repro.blcr import (
    BASE_SMALL_RECORDS,
    BLCRError,
    ProcessContext,
    RECORDS_PER_THREAD,
    SMALL_RECORD,
    cr_checkpoint,
    cr_request_checkpoint,
    cr_restart,
)
from repro.hw import GB, MB, HardwareParams, MemoryExhausted, ServerNode
from repro.osim import RegularFileFD, boot_node
from repro.sim import Simulator


def make_env():
    sim = Simulator()
    node = ServerNode(sim, HardwareParams())
    host_os, phi_oses = boot_node(node)
    return sim, node, host_os, phi_oses[0]


def run(sim, gen):
    t = sim.spawn(gen)
    sim.run()
    assert t.done.ok, t.done.exception
    return t.done.value


def counting_main(proc):
    """A resumable program: counts iterations in the store."""
    store = proc.store
    store.setdefault("iter", 0)
    store.setdefault("result", 0)
    while store["iter"] < store.get("n_iter", 10):
        yield proc.sim.timeout(0.1)
        store["result"] += store["iter"]
        store["iter"] += 1
    store["done"] = True


def test_context_capture_copies_state():
    sim, node, host, phi = make_env()

    def worker(sim):
        proc = yield from host.spawn_process("app", image_size=1 * MB)
        proc.map_region("heap", 10 * MB, data={"v": [1, 2, 3]})
        proc.store["iter"] = 5
        ctx = ProcessContext.capture(proc)
        # Mutations after capture must not leak into the context.
        proc.store["iter"] = 99
        proc.region("heap").data["v"].append(4)
        return ctx

    ctx = run(sim, worker(sim))
    assert ctx.store["iter"] == 5
    region = {r.name: r for r in ctx.regions}
    assert region["heap"].data == {"v": [1, 2, 3]}
    assert ctx.bulk_bytes == 11 * MB


def test_write_plan_shape():
    ctx = ProcessContext(
        name="x", nthreads=240, store={},
        regions=[__import__("repro.blcr.context", fromlist=["RegionImage"]).RegionImage(
            "heap", 9 * MB, "heap", False)],
    )
    plan = ctx.write_plan()
    small = [p for p in plan if p[0] == SMALL_RECORD]
    bulk = [p for p in plan if p[0] > SMALL_RECORD]
    assert len(small) == BASE_SMALL_RECORDS + RECORDS_PER_THREAD * 240 + 1
    assert sum(n for n, _ in bulk) == 9 * MB
    # Exactly one record carries the context itself.
    assert sum(1 for _, r in plan if isinstance(r, ProcessContext)) == 1


def test_checkpoint_restart_roundtrip_preserves_result():
    """The headline correctness property: restart -> identical final result."""
    sim, node, host, phi = make_env()
    state = {}

    def worker(sim):
        proc = yield from host.spawn_process(
            "app", image_size=1 * MB, main_factory=counting_main
        )
        proc.store["n_iter"] = 10
        yield sim.timeout(0.35)  # a few iterations in
        fd = RegularFileFD(sim, host.fs, "/ckpt/app.ctx", "w")
        ctx = yield from cr_checkpoint(proc, fd)
        fd.close()
        state["iter_at_ckpt"] = ctx.store["iter"]
        proc.terminate()

        rfd = RegularFileFD(sim, host.fs, "/ckpt/app.ctx", "r")
        restored = yield from cr_restart(host, rfd)
        rfd.close()
        yield restored.main_thread.done
        return restored

    restored = run(sim, worker(sim))
    assert 0 < state["iter_at_ckpt"] < 10
    assert restored.store["done"] is True
    # sum(range(10)) regardless of where the snapshot fell.
    assert restored.store["result"] == sum(range(10))
    assert restored.store["_blcr_restored"] is True


def test_restart_remaps_regions_with_data():
    sim, node, host, phi = make_env()

    def worker(sim):
        proc = yield from host.spawn_process("app", image_size=2 * MB)
        proc.map_region("heap", 64 * MB, data={"weights": "W0"}, pinned=True)
        fd = RegularFileFD(sim, host.fs, "/c", "w")
        yield from cr_checkpoint(proc, fd)
        fd.close()
        proc.terminate()
        rfd = RegularFileFD(sim, host.fs, "/c", "r")
        restored = yield from cr_restart(host, rfd)
        return restored

    restored = run(sim, worker(sim))
    assert restored.region("heap").data == {"weights": "W0"}
    assert restored.region("heap").pinned is True
    assert restored.memory_footprint == 66 * MB


def test_checkpoint_dead_process_rejected():
    sim, node, host, phi = make_env()

    def worker(sim):
        proc = yield from host.spawn_process("app")
        proc.terminate()
        fd = RegularFileFD(sim, host.fs, "/c", "w")
        with pytest.raises(BLCRError):
            yield from cr_checkpoint(proc, fd)
        return "ok"

    assert run(sim, worker(sim)) == "ok"


def test_restart_from_non_context_file_fails():
    sim, node, host, phi = make_env()

    def worker(sim):
        fd = RegularFileFD(sim, host.fs, "/junk", "w")
        yield from fd.write(SMALL_RECORD, record="not-a-context")
        fd.close()
        rfd = RegularFileFD(sim, host.fs, "/junk", "r")
        with pytest.raises(BLCRError):
            yield from cr_restart(host, rfd)
        return "ok"

    assert run(sim, worker(sim)) == "ok"


def test_restart_oom_cleans_up():
    """Restoring a 6 GB process onto a card with 5 GB free must fail cleanly."""
    sim, node, host, phi = make_env()

    def worker(sim):
        proc = yield from phi.spawn_process("big")
        proc.map_region("heap", 6 * GB)
        fd = RegularFileFD(sim, host.fs, "/c", "w")
        yield from cr_checkpoint(proc, fd)
        fd.close()
        proc.terminate()
        # Occupy the card so the restore cannot fit.
        phi.memory.allocate(5 * GB, "process")
        rfd = RegularFileFD(sim, host.fs, "/c", "r")
        with pytest.raises(MemoryExhausted):
            yield from cr_restart(phi, rfd)
        phi.memory.free(5 * GB, "process")
        return "ok"

    assert run(sim, worker(sim)) == "ok"
    # The half-restored process must not linger in the process table.
    assert all(p.name != "big" for p in phi.processes.values())
    assert not any(t.name.startswith("big/") for t in sim.threads.values())


def test_cr_request_checkpoint_is_asynchronous():
    sim, node, host, phi = make_env()

    def worker(sim):
        proc = yield from host.spawn_process(
            "app", image_size=1 * MB, main_factory=counting_main
        )
        proc.store["n_iter"] = 3
        fd = RegularFileFD(sim, host.fs, "/c", "w")
        done = cr_request_checkpoint(proc, fd)
        t_request = sim.now
        ctx = yield done
        fd.close()
        return t_request, sim.now, ctx

    t_request, t_done, ctx = run(sim, worker(sim))
    assert t_done >= t_request
    assert isinstance(ctx, ProcessContext)


def test_checkpoint_size_accounting():
    sim, node, host, phi = make_env()

    def worker(sim):
        proc = yield from phi.spawn_process("app", image_size=20 * MB)
        proc.map_region("heap", 100 * MB)
        fd = RegularFileFD(sim, host.fs, "/c", "w")
        ctx = yield from cr_checkpoint(proc, fd)
        fd.close()
        return ctx, host.fs.stat("/c").size

    ctx, fsize = run(sim, worker(sim))
    assert fsize == ctx.image_bytes
    assert ctx.bulk_bytes == 120 * MB
    assert ctx.metadata_bytes < 1 * MB


def test_restart_on_different_os():
    """Process migration primitive: context captured on mic0, restored on mic1."""
    sim = Simulator()
    node = ServerNode(sim, HardwareParams(phis_per_node=2))
    host, (mic0, mic1) = boot_node(node)

    def worker(sim):
        proc = yield from mic0.spawn_process(
            "roamer", image_size=1 * MB, main_factory=counting_main
        )
        proc.store["n_iter"] = 4
        yield sim.timeout(0.15)
        fd = RegularFileFD(sim, host.fs, "/c", "w")
        yield from cr_checkpoint(proc, fd)
        fd.close()
        proc.terminate()
        rfd = RegularFileFD(sim, host.fs, "/c", "r")
        restored = yield from cr_restart(mic1, rfd)
        yield restored.main_thread.done
        return restored

    restored = run(sim, worker(sim))
    assert restored.os is mic1
    assert restored.store["result"] == sum(range(4))


def test_multiple_restores_from_one_context_are_independent():
    """Regression: two processes restored from the SAME snapshot must not
    share mutable store/region state (a real bug caught by the resilient-
    runner benchmark: the second restore saw the first restart's progress)."""
    sim, node, host, phi = make_env()

    def worker(sim):
        proc = yield from host.spawn_process(
            "app", image_size=1 * MB, main_factory=counting_main
        )
        proc.store["n_iter"] = 6
        proc.map_region("heap", 4 * MB, data={"log": []})
        yield sim.timeout(0.25)
        fd = RegularFileFD(sim, host.fs, "/multi", "w")
        yield from cr_checkpoint(proc, fd)
        fd.close()
        proc.terminate()

        rfd = RegularFileFD(sim, host.fs, "/multi", "r")
        first = yield from cr_restart(host, rfd)
        rfd.close()
        yield first.main_thread.done
        first.store["poison"] = True
        first.region("heap").data["log"].append("tainted")
        first.terminate()

        rfd = RegularFileFD(sim, host.fs, "/multi", "r")
        second = yield from cr_restart(host, rfd)
        rfd.close()
        yield second.main_thread.done
        return first, second

    first, second = run(sim, worker(sim))
    assert second.store.get("poison") is None
    assert second.region("heap").data == {"log": []}
    assert first.store["result"] == second.store["result"] == sum(range(6))
