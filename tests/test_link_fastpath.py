"""The PCIe/SCIF data path's fast paths.

A free link is taken without a resume, so one uncontended hop costs the one
heap entry of its sleep, and SCIF endpoints occupy the link directions of a
route cached at connect time. These tests pin that the shortcuts change no
cost: FIFO handoff, the wait-for-graph edge of a queued transfer, the
release of a killed holder's link, and the per-hop, P2P-floor and loopback
charges of SCIF sends and RDMA. The memory tier's replication and NFS cross
the same shared routes, so their bytes contend with RDMA and show up on
the link counters.
"""

import pytest

from repro.blcr.context import BULK_CHUNK
from repro.blcr.incremental import DeltaImage
from repro.hw import MB, BandwidthLink, HardwareParams, ServerNode
from repro.osim import boot_node
from repro.scif import ScifNetwork, scif_register, scif_writeto
from repro.sim import Simulator, ThreadKilled
from repro.snapify_io import MemoryTier, NFSMount


def _transfer(link, log, tag, nbytes, latency=0.5):
    yield from link.occupy(nbytes, extra_latency=latency)
    log.append((tag, link.sim.now))


# ---------------------------------------------------------------------------
# BandwidthLink
# ---------------------------------------------------------------------------


def test_an_uncontended_hop_costs_one_heap_entry():
    sim = Simulator()
    link = BandwidthLink(sim, bandwidth=100.0, name="wire")
    log = []
    sim.spawn(_transfer(link, log, "a", 100))
    sim.run()
    assert log == [("a", 1.5)]
    # One draw for the spawn, one for the transfer's sleep.
    assert next(sim._seq) == 2


def test_queued_transfers_finish_on_the_fifo_schedule():
    sim = Simulator()
    link = BandwidthLink(sim, bandwidth=100.0, name="wire")
    log = []
    for tag, nbytes in (("a", 300), ("b", 100), ("c", 200)):
        sim.spawn(_transfer(link, log, tag, nbytes))
    sim.run()
    # Each starts when the one before ends: 0.5 + 3, + 0.5 + 1, + 0.5 + 2.
    assert log == [("a", 3.5), ("b", 5.0), ("c", 7.5)]
    assert (link.transfer_count, link.bytes_transferred) == (3, 600)
    assert link.busy_time == pytest.approx(7.5)
    assert not link.busy


def test_a_queued_transfer_names_the_link_mutex_in_the_wait_for_graph():
    sim = Simulator()
    link = BandwidthLink(sim, bandwidth=100.0, name="wire")
    log = []
    sim.spawn(_transfer(link, log, "a", 1000), name="first")
    second = sim.spawn(_transfer(link, log, "b", 100), name="second")
    sim.run(until=1.0)
    edges = {e["thread"]: e for e in sim.wait_for_graph()}
    assert edges["first"]["event"] == "sleep"
    assert edges["second"] == {
        "thread": "second",
        "tid": second.tid,
        "daemon": False,
        "event": "acquire:link:wire",
        "owner": "mutex 'link:wire' (anonymous holder)",
    }
    sim.run()
    assert log == [("a", 10.5), ("b", 12.0)]


def test_killing_an_uncontended_holder_hands_the_link_on_at_the_kill():
    sim = Simulator()
    link = BandwidthLink(sim, bandwidth=100.0, name="wire")
    log = []
    holder = sim.spawn(_transfer(link, log, "a", 1000))
    sim.spawn(_transfer(link, log, "b", 200))
    sim.schedule(4.0, holder.kill)
    sim.run()
    assert isinstance(holder.done.exception, ThreadKilled)
    # b takes the link at the kill instant: 4 + 0.5 + 2.
    assert log == [("b", 6.5)]
    assert (link.transfer_count, link.bytes_transferred) == (1, 200)
    assert not link.busy


# ---------------------------------------------------------------------------
# SCIF endpoints on their cached route
# ---------------------------------------------------------------------------


def _connected(node, src, dst, body):
    """Run ``body(sim, ep, roff)`` on the client end of a fresh connection
    from card ``src`` to card ``dst``, whose server end registered a 64 MB
    window at ``roff``; return its value."""
    sim = node.sim
    net = ScifNetwork.of(node)
    listener = net.listen(dst.os, port=100)

    def server(sim):
        ep = yield listener.accept()
        roff = yield from scif_register(ep, 64 * MB)
        yield from ep.send(roff)
        while True:
            if (yield ep.recv()) == "done":
                return

    def client(sim):
        ep = yield from net.connect(src.os, dst.scif_node_id, 100)
        roff = yield ep.recv()
        value = yield from body(sim, ep, roff)
        yield from ep.send("done")
        return value

    sim.spawn(server(sim))
    t = sim.spawn(client(sim))
    sim.run()
    assert t.done.ok, t.done.exception
    return t.done.value


@pytest.fixture
def node():
    sim = Simulator()
    node = ServerNode(sim, HardwareParams(phis_per_node=2))
    boot_node(node)
    return node


def _measure(sim, links, moved, transfer):
    """Sub-generator: run ``transfer``; note the transfers and bytes each of
    ``links`` gained in ``moved`` and return the simulated time it took."""
    before = [(link.transfer_count, link.bytes_transferred) for link in links]
    t0 = sim.now
    yield from transfer
    dt = sim.now - t0
    for link, (n, b) in zip(links, before):
        moved.append((link.transfer_count - n, link.bytes_transferred - b))
    return dt


def test_mic_to_mic_send_pays_both_hops(node):
    mic0, mic1 = node.phis
    p = node.params.pcie
    moved = []

    def body(sim, ep, roff):
        links = (mic0.link.d2h, mic1.link.h2d)
        return (yield from _measure(sim, links, moved, ep.send("x", nbytes=4096)))

    dt = _connected(node, mic0, mic1, body)
    d2h = p.message_latency + 4096 / p.dma_bw_d2h
    h2d = p.message_latency + 4096 / p.dma_bw_h2d
    assert dt == pytest.approx(d2h + h2d)
    assert moved == [(1, 4096), (1, 4096)]


@pytest.mark.parametrize("nbytes", [4096, 48 * MB])
def test_mic_to_mic_writeto_pays_both_hops_and_the_p2p_floor(node, nbytes):
    mic0, mic1 = node.phis
    p = node.params.pcie
    moved = []

    def body(sim, ep, roff):
        loff = yield from scif_register(ep, 64 * MB)
        links = (mic0.link.d2h, mic1.link.h2d)
        return (yield from _measure(sim, links, moved, scif_writeto(ep, loff, roff, nbytes)))

    dt = _connected(node, mic0, mic1, body)
    d2h = p.rdma_op_latency + nbytes / p.dma_bw_d2h
    h2d = p.rdma_op_latency + nbytes / p.dma_bw_h2d
    # Small transfers pay the two hops; large ones the slower P2P floor.
    assert dt == pytest.approx(max(d2h + h2d, nbytes / p.p2p_bw))
    assert moved == [(1, nbytes), (1, nbytes)]


def test_loopback_send_pays_one_microsecond(node):
    mic0 = node.phis[0]
    moved = []

    def body(sim, ep, roff):
        links = (mic0.link.d2h, mic0.link.h2d)
        return (yield from _measure(sim, links, moved, ep.send("x")))

    assert _connected(node, mic0, mic0, body) == pytest.approx(1e-6)
    assert moved == [(0, 0), (0, 0)]


# ---------------------------------------------------------------------------
# The memory tier and NFS on the shared routes
# ---------------------------------------------------------------------------


def _tier(node):
    tier = MemoryTier.of(node.sim)
    for phi in node.phis:
        tier.register_card(phi.key, phi)
    return tier


def _image(nbytes):
    return DeltaImage(
        snapshot_id="/t",
        epoch=0,
        kind="base",
        nthreads=1,
        store={},
        logical_bytes=nbytes,
        delta_bytes=nbytes,
    )


def _run(sim, gen):
    t = sim.spawn(gen)
    sim.run()
    assert t.done.ok, t.done.exception
    return t.done.value


def test_tier_replication_occupies_the_card_to_card_route(node):
    mic0, mic1 = node.phis
    nbytes = 2 * BULK_CHUNK + 1000
    moved = []
    links = (mic0.link.d2h, mic1.link.h2d)
    store = _tier(node).store(mic0.os, "/t", _image(nbytes))
    _run(node.sim, _measure(node.sim, links, moved, store))
    # One DMA per chunk on each hop: mic0's uplink, then mic1's downlink.
    assert moved == [(3, nbytes), (3, nbytes)]
    assert MemoryTier.of(node.sim).lookup("/t").links[0].replicated


def test_an_uncontended_tier_chunk_takes_the_p2p_floor(node):
    mic0, mic1 = node.phis
    moved = []
    links = (mic0.link.d2h, mic1.link.h2d)
    store = _tier(node).store(mic0.os, "/t", _image(BULK_CHUNK))
    dt = _run(node.sim, _measure(node.sim, links, moved, store))
    assert dt == pytest.approx(BULK_CHUNK / node.params.pcie.p2p_bw)
    assert moved == [(1, BULK_CHUNK), (1, BULK_CHUNK)]


def test_tier_replication_queues_behind_a_writeto_on_the_same_link(node):
    mic0, mic1 = node.phis
    p = node.params.pcie
    tier = _tier(node)
    done = {}

    def replicate(sim):
        yield sim.timeout(1e-6)  # arrive while the writeto holds mic0's uplink
        yield from tier.store(mic0.os, "/t", _image(BULK_CHUNK))
        done["tier"] = sim.now

    def body(sim, ep, roff):
        loff = yield from scif_register(ep, 64 * MB)
        sim.spawn(replicate(sim))
        t0 = sim.now
        yield from scif_writeto(ep, loff, roff, 48 * MB)
        return t0

    t0 = _connected(node, mic0, mic1, body)
    # The chunk takes mic0's uplink when the writeto releases it, then waits
    # for the writeto's hop on mic1's downlink before taking its own.
    d2h = p.rdma_op_latency + 48 * MB / p.dma_bw_d2h
    h2d = p.rdma_op_latency + 48 * MB / p.dma_bw_h2d
    own = p.rdma_op_latency + BULK_CHUNK / p.dma_bw_h2d
    assert done["tier"] == pytest.approx(t0 + d2h + h2d + own)


def test_an_nfs_write_crosses_the_card_uplink(node):
    mic0 = node.phis[0]
    mount = NFSMount(mic0.os, node.os.fs, node.params.nfs, sync_writes=True)
    mount.create("/nfs/f")
    moved = []
    links = (mic0.link.d2h, mic0.link.h2d)
    _run(node.sim, _measure(node.sim, links, moved, mount.write("/nfs/f", 8 * MB)))
    assert moved == [(1, 8 * MB), (0, 0)]
    assert node.os.fs.stat("/nfs/f").size == 8 * MB
