"""Each invariant oracle catches its own class of crafted violation.

The fuzzer is only as good as its oracles: a broken oracle silently turns
the whole campaign green. Every test here wounds a healthy testbed in one
specific way and asserts exactly the right oracle fires.
"""

from types import SimpleNamespace

from repro.check import check_all
from repro.check.oracles import (
    card_bytes_cross_links,
    memory_accounting,
    monitor_quiescent,
    no_crashed_threads,
    nothing_left_paused,
    process_accounting,
    ramfs_accounting,
    scif_conservation,
    staging_buffers_released,
    staging_drained,
)
from repro.scif.endpoint import ScifNetwork
from repro.snapify.monitor import SnapifyService
from repro.testbed import XeonPhiServer


def test_healthy_testbed_passes_every_oracle():
    server = XeonPhiServer()
    server.sim.run()  # settle to quiescence
    assert check_all(server) == []


def test_memory_accounting_catches_ledger_drift():
    server = XeonPhiServer()
    server.node.memory.used += 4096  # drift: used without a category
    violations = memory_accounting(server)
    assert violations and violations[0].oracle == "memory_accounting"
    assert "categories sum" in violations[0].detail


def test_process_accounting_catches_leaked_regions():
    server = XeonPhiServer()
    # 'process' bytes accounted with no live process owning them.
    server.node.memory.allocate(1 << 20, "process")
    violations = process_accounting(server)
    assert violations and violations[0].oracle == "process_accounting"


def test_ramfs_accounting_catches_orphaned_bytes():
    server = XeonPhiServer()
    server.node.phis[0].memory.allocate(512, "ramfs")  # no backing file
    violations = ramfs_accounting(server)
    assert violations and "mic0" in violations[0].detail


def test_card_bytes_cross_links_catches_a_delivery_that_skipped_the_link():
    """A file the transfer chain says left card 0 while its uplink carried
    nothing: the bypass class the oracle exists for (an NFS write or tier
    stream charged as a bare sleep)."""
    from repro.snapify.ops import OperationManager

    server = XeonPhiServer()
    server.sim.run()
    phi = server.node.phis[0]
    carried = phi.link.d2h.bytes_transferred
    mgr = OperationManager.of(server.sim)
    mgr.deliveries.append((phi, server.node, carried))
    assert card_bytes_cross_links(server) == []  # within what the link carried
    mgr.deliveries.append((phi, server.node, 1))
    violations = card_bytes_cross_links(server)
    assert [v.oracle for v in violations] == ["card_bytes_cross_links"]
    assert "n0.mic0" in violations[0].detail and "left the card" in violations[0].detail


def _registered_endpoint(server):
    """A connected-looking endpoint registered with the node's network.
    (Plain boot leaves only listeners; connections appear with workloads.)"""
    from repro.scif.endpoint import ScifEndpoint

    ep = ScifEndpoint(server.sim, server.host_os, 9999)
    ScifNetwork.of(server.node).register(ep)
    return ep


def test_scif_conservation_catches_lost_messages():
    server = XeonPhiServer()
    ep = _registered_endpoint(server)
    ep._rx.sent_count += 1  # a message 'sent' that nobody will ever see
    violations = scif_conservation(server)
    assert any(f"ep{ep.eid}" in v.detail for v in violations)


def test_scif_conservation_ignores_closed_endpoints():
    server = XeonPhiServer()
    ep = _registered_endpoint(server)
    ep._rx.sent_count += 1
    ep.close()  # close() legally discards in-flight messages
    assert all(f"ep{ep.eid}" not in v.detail for v in scif_conservation(server))


def test_staging_buffers_released_catches_closed_endpoint_holding_windows():
    """A window left on a closed endpoint (a registration that outlived its
    close) is accounted as staging but registered by no open endpoint."""
    server = XeonPhiServer()
    ep = _registered_endpoint(server)
    ep.close()
    server.node.memory.allocate(1 << 20, "rdma_staging")
    ep.windows[0x10000] = 1 << 20
    violations = staging_buffers_released(server)
    assert [v.detail for v in violations] == [
        "host: rdma_staging accounts 1048576 bytes but open endpoints register 0"
    ]


def test_nothing_left_paused_catches_leaked_pause():
    server = XeonPhiServer()
    daemon_proc = server.coi_daemons[0].proc
    daemon_proc.runtime["coi_handle"] = SimpleNamespace(paused=True)
    try:
        violations = nothing_left_paused(server)
        assert violations and "still paused" in violations[0].detail
    finally:
        daemon_proc.runtime.pop("coi_handle")


def test_monitor_quiescent_catches_lingering_monitor():
    server = XeonPhiServer()
    svc = SnapifyService.of(server.coi_daemons[0])
    svc.monitor_running = True
    violations = monitor_quiescent(server)
    assert violations and "monitor thread still running" in violations[0].detail


def test_monitor_quiescent_catches_stuck_requests():
    server = XeonPhiServer()
    svc = SnapifyService.of(server.coi_daemons[0])
    svc.active[1234] = SimpleNamespace()
    violations = monitor_quiescent(server)
    assert violations and "1234" in violations[0].detail


def test_staging_drained_catches_leftover_localstore():
    server = XeonPhiServer()
    server.phi_os(0).fs.create("/mig/x/localstore")
    violations = staging_drained(server)
    assert violations and "localstore" in violations[0].detail


def test_no_crashed_threads_catches_internal_errors():
    server = XeonPhiServer()

    def buggy(sim):
        yield sim.timeout(0.01)
        raise KeyError("protocol handler bug")

    server.sim.spawn(buggy(server.sim), name="buggy")
    server.sim.run()
    violations = no_crashed_threads(server)
    assert violations and "KeyError" in violations[0].detail


def test_no_crashed_threads_allows_documented_errors():
    server = XeonPhiServer()

    def dies_cleanly(sim):
        from repro.scif.endpoint import ConnectionReset

        yield sim.timeout(0.01)
        raise ConnectionReset("peer gone")

    server.sim.spawn(dies_cleanly(server.sim), name="clean-death")
    server.sim.run()
    assert no_crashed_threads(server) == []
