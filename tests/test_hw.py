"""Unit tests for the hardware layer: links, memory pools, disk, node, cluster."""

import pytest

from repro.hw import (
    GB,
    MB,
    BandwidthLink,
    Cluster,
    HardwareParams,
    MemoryExhausted,
    MemoryParams,
    PhysicalMemory,
    ServerNode,
)
from repro.osim import boot_node
from repro.scif import ScifNetwork, scif_register
from repro.sim import Simulator


def run_thread(sim, gen):
    t = sim.spawn(gen)
    sim.run()
    assert t.done.ok, t.done.exception
    return t.done.value


# --------------------------------------------------------------------------
# BandwidthLink / PCIe
# --------------------------------------------------------------------------


def test_link_transfer_time():
    sim = Simulator()
    link = BandwidthLink(sim, bandwidth=100.0)

    def worker(sim):
        yield from link.occupy(1000, extra_latency=0.5)
        return sim.now

    assert run_thread(sim, worker(sim)) == pytest.approx(10.5)


def test_link_serializes_concurrent_transfers():
    sim = Simulator()
    link = BandwidthLink(sim, bandwidth=100.0)
    finish = []

    def worker(sim, tag):
        yield from link.occupy(500)
        finish.append((tag, sim.now))

    sim.spawn(worker(sim, "a"))
    sim.spawn(worker(sim, "b"))
    sim.run()
    assert finish == [("a", 5.0), ("b", 10.0)]


def test_link_counters():
    sim = Simulator()
    link = BandwidthLink(sim, bandwidth=100.0)

    def worker(sim):
        yield from link.occupy(300)
        yield from link.occupy(200)

    run_thread(sim, worker(sim))
    assert link.bytes_transferred == 500
    assert link.transfer_count == 2


def test_link_rejects_bad_args():
    sim = Simulator()
    with pytest.raises(ValueError):
        BandwidthLink(sim, bandwidth=0)
    link = BandwidthLink(sim, bandwidth=1.0)

    def worker(sim):
        yield from link.occupy(-1)

    t = sim.spawn(worker(sim))
    sim.run()
    assert isinstance(t.done.exception, ValueError)


def test_pcie_directions_are_independent():
    sim = Simulator()
    node = ServerNode(sim, HardwareParams())
    link = node.phis[0].link
    latency = link.params.rdma_op_latency
    done = []

    def up(sim):
        yield from link.d2h.occupy(650 * MB, latency)
        done.append(("up", sim.now))

    def down(sim):
        yield from link.h2d.occupy(600 * MB, latency)
        done.append(("down", sim.now))

    sim.spawn(up(sim))
    sim.spawn(down(sim))
    sim.run()
    # Full duplex: both complete in ~0.1 s rather than serializing.
    assert all(t < 0.2 for _, t in done)


def test_pcie_message_vs_rdma_contention():
    sim = Simulator()
    node = ServerNode(sim, HardwareParams())
    link = node.phis[0].link
    times = {}

    def bulk(sim):
        yield from link.h2d.occupy(600 * MB, link.params.rdma_op_latency)
        times["bulk"] = sim.now

    def msg(sim):
        yield sim.timeout(1e-6)  # arrive after the bulk transfer starts
        yield from link.h2d.occupy(64, link.params.message_latency)
        times["msg"] = sim.now

    sim.spawn(bulk(sim))
    sim.spawn(msg(sim))
    sim.run()
    # The control message queues behind the bulk RDMA on the shared wire.
    assert times["msg"] > times["bulk"]


def test_pcie_register_cost_scales_with_size():
    """scif_register charges the pinning cost locally: more pages, more time."""
    sim = Simulator()
    node = ServerNode(sim, HardwareParams())
    host, phis = boot_node(node)
    net = ScifNetwork.of(node)
    listener = net.listen(phis[0], port=700)

    def register_time(nbytes):
        def driver(sim):
            ep = yield from net.connect(host, 1, 700)
            yield listener.accept()
            t0 = sim.now
            yield from scif_register(ep, nbytes)
            return sim.now - t0

        return run_thread(sim, driver(sim))

    small = register_time(1 * MB)
    large = register_time(100 * MB)
    assert large > small > 0


# --------------------------------------------------------------------------
# PhysicalMemory
# --------------------------------------------------------------------------


def test_memory_allocate_free():
    sim = Simulator()
    mem = PhysicalMemory(sim, MemoryParams(capacity=1000))
    mem.allocate(400, "process")
    mem.allocate(100, "ramfs")
    assert mem.used == 500
    assert mem.available == 500
    mem.free(400, "process")
    assert mem.used == 100
    assert mem.by_category["ramfs"] == 100


def test_memory_exhaustion():
    sim = Simulator()
    mem = PhysicalMemory(sim, MemoryParams(capacity=1000))
    mem.allocate(900)
    with pytest.raises(MemoryExhausted) as exc:
        mem.allocate(200)
    assert exc.value.available == 100
    assert not mem.can_allocate(200)
    assert mem.can_allocate(100)


def test_memory_peak_tracking():
    sim = Simulator()
    mem = PhysicalMemory(sim, MemoryParams(capacity=1000))
    mem.allocate(800)
    mem.free(600)
    mem.allocate(100)
    assert mem.peak == 800
    assert mem.used == 300


def test_memory_over_free_rejected():
    sim = Simulator()
    mem = PhysicalMemory(sim, MemoryParams(capacity=1000))
    mem.allocate(100, "a")
    with pytest.raises(ValueError):
        mem.free(200, "a")
    with pytest.raises(ValueError):
        mem.free(1, "never-allocated")


def test_memcpy_time():
    sim = Simulator()
    mem = PhysicalMemory(sim, MemoryParams(capacity=GB, memcpy_bw=2 * GB))

    def worker(sim):
        yield from mem.memcpy(GB)
        return sim.now

    assert run_thread(sim, worker(sim)) == pytest.approx(0.5)


# --------------------------------------------------------------------------
# HostDisk
# --------------------------------------------------------------------------


def test_disk_async_write_is_fast_then_fsync_waits():
    sim = Simulator()
    node = ServerNode(sim, HardwareParams())
    disk = node.disk
    times = {}

    def worker(sim):
        yield from disk.write(350 * MB)  # absorbed by page cache
        times["write_done"] = sim.now
        yield from disk.fsync()
        times["fsync_done"] = sim.now

    run_thread(sim, worker(sim))
    # Page-cache write at memcpy speed (~6 GB/s) ≈ 0.06 s.
    assert times["write_done"] < 0.2
    # fsync waits for the 350 MB/s platter ≈ 1 s.
    assert times["fsync_done"] == pytest.approx(1.0, rel=0.3)


def test_disk_sync_write():
    sim = Simulator()
    node = ServerNode(sim, HardwareParams())

    def worker(sim):
        yield from node.disk.write(350 * MB, sync=True)
        return sim.now

    t_end = run_thread(sim, worker(sim))
    assert t_end == pytest.approx(1.0, rel=0.3)


def test_disk_dirty_limit_throttles():
    params = HardwareParams()
    # Shrink the cache so the test is quick.
    small_disk = params.host.disk.__class__(
        read_bw=params.host.disk.read_bw,
        write_bw=params.host.disk.write_bw,
        op_latency=params.host.disk.op_latency,
        dirty_limit=64 * MB,
    )
    sim = Simulator()
    from repro.hw.storage import HostDisk

    disk = HostDisk(sim, small_disk, memcpy_bw=6 * GB)

    def worker(sim):
        yield from disk.write(350 * MB)
        return sim.now

    t_end = run_thread(sim, worker(sim))
    # Most of the write had to go at platter speed: ~(350-64)/350 s ≈ 0.8 s.
    assert t_end > 0.5


def test_disk_read_cached_vs_uncached():
    sim = Simulator()
    node = ServerNode(sim, HardwareParams())
    times = {}

    def worker(sim):
        t0 = sim.now
        yield from node.disk.read(500 * MB, cached=True)
        times["cached"] = sim.now - t0
        t0 = sim.now
        yield from node.disk.read(500 * MB, cached=False)
        times["uncached"] = sim.now - t0

    run_thread(sim, worker(sim))
    assert times["cached"] < times["uncached"]
    assert times["uncached"] == pytest.approx(1.0, rel=0.3)


# --------------------------------------------------------------------------
# Node / Cluster
# --------------------------------------------------------------------------


def test_node_topology():
    sim = Simulator()
    node = ServerNode(sim, HardwareParams(phis_per_node=2))
    assert len(node.phis) == 2
    assert node.phis[0].scif_node_id == 1
    assert node.phis[1].scif_node_id == 2
    assert node.scif_peer(0) is node
    assert node.scif_peer(2) is node.phis[1]


def test_phi_memory_capacity_default():
    sim = Simulator()
    node = ServerNode(sim, HardwareParams())
    assert node.phis[0].memory.capacity == 8 * GB


def test_cluster_transfer_times():
    sim = Simulator()
    cluster = Cluster(sim, HardwareParams(), n_nodes=4)

    def worker(sim):
        t0 = sim.now
        yield from cluster.transfer(0, 1, int(3.2 * GB))
        return sim.now - t0

    dt = run_thread(sim, worker(sim))
    assert dt == pytest.approx(1.0, rel=0.1)


def test_cluster_same_node_transfer_is_free():
    sim = Simulator()
    cluster = Cluster(sim, HardwareParams(), n_nodes=2)

    def worker(sim):
        yield sim.timeout(0)
        yield from cluster.transfer(1, 1, GB)
        return sim.now

    assert run_thread(sim, worker(sim)) == 0


def test_cluster_validates_size():
    sim = Simulator()
    with pytest.raises(ValueError):
        Cluster(sim, HardwareParams(), n_nodes=0)


def test_params_with_override():
    params = HardwareParams()
    tweaked = params.with_(phis_per_node=4)
    assert tweaked.phis_per_node == 4
    assert params.phis_per_node == 2  # original untouched


def test_describe_smoke():
    from repro.hw import describe

    desc = describe(HardwareParams())
    assert "pcie dma h2d" in desc
    assert desc["phi memory"] == "8 GB"
