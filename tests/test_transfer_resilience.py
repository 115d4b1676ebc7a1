"""Transfer resilience: retry/backoff, resumable streams, fallback chain.

Covers the failure modes the Snapify-IO transfer path must survive (see
docs/architecture.md, "Transfer resilience"): bad/failed target nodes fail
fast, an abandoned write stream aborts instead of committing a truncated
file, interrupted transfers resume from the last durable boundary, the
TransferManager degrades Snapify-IO -> NFS -> scp, and connection resets
never leak RDMA staging-buffer registrations.
"""

import pytest

from repro.check.oracles import check_all
from repro.hw import GB, MB
from repro.obs.registry import MetricsRegistry
from repro.sched.faults import FaultInjector
from repro.sim.errors import SimError
from repro.snapify import transfer_snapshot
from repro.snapify.monitor import SnapifyError
from repro.snapify.ops import RETRYING, TRANSFERRING, OperationManager
from repro.snapify_io import (
    RetryPolicy,
    SnapifyIODaemon,
    SnapifyIOError,
    TransferFailed,
    TransferManager,
    scp_copy,
    snapifyio_open,
)
from repro.testbed import XeonPhiServer

#: Fast policy so retry-heavy tests stay quick in simulated time.
FAST = RetryPolicy(attempts=3, base_delay=0.01, multiplier=2.0,
                   max_delay=0.05, jitter=0.25)


# ---------------------------------------------------------------------------
# snapifyio_open fail-fast node validation
# ---------------------------------------------------------------------------


def test_open_unknown_node_fails_fast():
    server = XeonPhiServer()
    phi = server.phi_os(0)

    def driver(sim):
        with pytest.raises(SnapifyIOError, match="no SCIF node 9"):
            yield from snapifyio_open(phi, 9, "/x", "w")
        return sim.now

    t = server.run(driver(server.sim))
    # Fail-fast: no connect latency was paid, nothing hung.
    assert t < 0.01 + server.sim.now


def test_open_negative_node_rejected():
    """A negative id must not wrap through Python list indexing onto the
    wrong card."""
    server = XeonPhiServer()

    def driver(sim):
        with pytest.raises(SnapifyIOError, match="no SCIF node -1"):
            yield from snapifyio_open(server.phi_os(0), -1, "/x", "w")

    server.run(driver(server.sim))


def test_open_failed_card_fails_fast():
    server = XeonPhiServer()
    injector = FaultInjector(server.sim)

    def driver(sim):
        injector.fail_now(server.node.phis[1])
        with pytest.raises(SnapifyIOError, match="failed|no Snapify-IO daemon"):
            yield from snapifyio_open(server.host_os, 2, "/x", "w")

    server.run(driver(server.sim))


def test_node_failure_between_connect_and_first_write():
    """The target card dies after the open handshake: the first write (or
    the commit wait) must surface a clean error, not hang or commit."""
    server = XeonPhiServer()
    injector = FaultInjector(server.sim)

    def driver(sim):
        fd = yield from snapifyio_open(server.host_os, 1, "/dead/x", "w")
        injector.fail_now(server.node.phis[0])
        with pytest.raises(SimError):
            yield from fd.write(64 * MB)
            yield from fd.finish()
        fd.close()

    server.run(driver(server.sim))
    host_daemon = SnapifyIODaemon.of(server.host_os)
    assert "/dead/x" not in host_daemon.commits


# ---------------------------------------------------------------------------
# Abort semantics: an abandoned write stream never commits
# ---------------------------------------------------------------------------


def test_close_unfinished_write_aborts_not_commits():
    server = XeonPhiServer()
    phi = server.phi_os(0)

    def driver(sim):
        fd = yield from snapifyio_open(phi, 0, "/ab/x", "w")
        yield from fd.write(32 * MB)
        fd.close()  # abandoned: no finish()
        yield sim.timeout(0.05)  # let the abort marker drain

    server.run(driver(server.sim))
    host_daemon = SnapifyIODaemon.of(server.host_os)
    assert "/ab/x" not in host_daemon.commits
    assert MetricsRegistry.of(server.sim).snapshot()["counters"]["snapifyio.aborts"] == 1


def test_process_exit_mid_write_emits_abort_record():
    """A card process dying mid-write (FDs torn down by terminate) must
    record the abort in the trace and never commit the truncated stream."""
    from repro.sim.kernel import Simulator

    sim = Simulator(trace=True)
    server = XeonPhiServer(sim=sim)
    phi = server.phi_os(0)

    def driver(sim):
        def victim_main(proc):
            fd = yield from snapifyio_open(phi, 0, "/ab/victim", "w", proc=proc)
            yield from fd.write(1 * GB)
            yield from fd.finish()

        proc = yield from phi.spawn_process("victim", image_size=1 * MB,
                                            main_factory=victim_main)
        yield sim.timeout(0.3)  # mid-transfer
        proc.terminate(code=137)
        yield sim.timeout(0.1)

    server.run(driver(sim))
    aborts = sim.trace.find("io.abort")
    assert len(aborts) == 1
    assert aborts[0].fields["path"] == "/ab/victim"
    assert "/ab/victim" not in SnapifyIODaemon.of(server.host_os).commits


# ---------------------------------------------------------------------------
# Resume protocol
# ---------------------------------------------------------------------------


def test_link_flap_transfer_retries_and_resumes():
    """A transient link flap mid-transfer: the TransferManager re-opens with
    resume and the destination file still arrives exact."""
    server = XeonPhiServer()
    injector = FaultInjector(server.sim)
    server.fault_injector = injector
    src = server.phi_os(0)

    def driver(sim):
        yield from src.fs.write("/fl/src", 512 * MB, payload=["flap-payload"])
        injector.schedule_link_flap(server.node.phis[0], at=sim.now + 0.02,
                                    up_after=0.03)
        result = yield from transfer_snapshot(
            src, 0, "/fl/src", "/fl/dst", manager=TransferManager(policy=FAST)
        )
        return result

    result = server.run(driver(server.sim))
    assert result.ok
    assert result.attempts > 1  # the flap genuinely interrupted the stream
    f = server.host_os.fs.stat("/fl/dst")
    assert f.size == 512 * MB
    assert f.payload == ["flap-payload"]
    # The operation bounced through RETRYING and spent time there.
    assert result.phases.get("retrying", 0) > 0
    assert not check_all(server)


def test_resume_handshake_skips_durable_prefix():
    """An explicit resume open re-streams only the bytes past the partial:
    the daemon reports its durable offset and the descriptor skips it."""
    server = XeonPhiServer()
    phi = server.phi_os(0)

    def driver(sim):
        fd = yield from snapifyio_open(phi, 0, "/rs/x", "w")
        yield from fd.write(96 * MB)
        fd.close()  # abort; the partial stays
        yield sim.timeout(0.05)
        partial = server.host_os.fs.stat("/rs/x").size
        assert 0 < partial <= 96 * MB
        fd = yield from snapifyio_open(phi, 0, "/rs/x", "w", resume=True)
        assert fd._skip == partial
        yield from fd.write(128 * MB, record="resumed")
        yield from fd.finish()

    server.run(driver(server.sim))
    f = server.host_os.fs.stat("/rs/x")
    assert f.size == 128 * MB
    assert f.payload == ["resumed"]
    assert SnapifyIODaemon.of(server.host_os).commits["/rs/x"] == 128 * MB


# ---------------------------------------------------------------------------
# Fallback chain permutations
# ---------------------------------------------------------------------------


def _transfer(server, policy=FAST, size=64 * MB, dst="/fb/dst"):
    src = server.phi_os(0)

    def driver(sim):
        yield from src.fs.write("/fb/src", size, payload=["fb"])
        result = yield from transfer_snapshot(
            src, 0, "/fb/src", dst, manager=TransferManager(policy=policy)
        )
        return result

    return server.run(driver(server.sim))


def test_fallback_none_needed():
    server = XeonPhiServer()
    server.fault_injector = FaultInjector(server.sim)
    result = _transfer(server)
    assert result.ok and result.channel == "snapifyio" and result.attempts == 1
    assert "retrying" not in result.phases
    assert server.host_os.fs.stat("/fb/dst").size == 64 * MB
    assert not check_all(server)


def test_fallback_to_nfs_when_io_daemon_down():
    server = XeonPhiServer()
    injector = FaultInjector(server.sim)
    server.fault_injector = injector
    injector.crash_io_daemon_now(server.host_os)
    result = _transfer(server)
    assert result.ok and result.channel == "nfs"
    f = server.host_os.fs.stat("/fb/dst")
    assert f.size == 64 * MB and f.payload == ["fb"]
    counters = MetricsRegistry.of(server.sim).snapshot()["counters"]
    assert counters["snapifyio.fallbacks"] >= 1
    assert not check_all(server)


def test_fallback_to_scp_when_io_and_nfs_down():
    server = XeonPhiServer()
    injector = FaultInjector(server.sim)
    server.fault_injector = injector
    injector.crash_io_daemon_now(server.host_os)
    server.node.os.fs.exported = False  # NFS export stopped
    result = _transfer(server)
    assert result.ok and result.channel == "scp"
    f = server.host_os.fs.stat("/fb/dst")
    assert f.size == 64 * MB and f.payload == ["fb"]
    assert not check_all(server)


def test_all_channels_down_fails_cleanly_with_cause_chain():
    server = XeonPhiServer()
    injector = FaultInjector(server.sim)
    server.fault_injector = injector
    injector.crash_io_daemon_now(server.host_os)
    server.node.os.fs.exported = False
    injector.flap_link_now(server.node.phis[0])  # stays down: scp unreachable
    src = server.phi_os(0)

    def driver(sim):
        yield from src.fs.write("/fb/src", 64 * MB, payload=["fb"])
        try:
            yield from transfer_snapshot(
                src, 0, "/fb/src", "/fb/dst", manager=TransferManager(policy=FAST)
            )
        except TransferFailed as exc:
            return exc
        raise AssertionError("transfer unexpectedly succeeded")

    failure = server.run(driver(server.sim))
    # The aggregated cause chain names every channel that was tried.
    msg = str(failure)
    assert "snapifyio" in msg and "nfs" in msg and "scp" in msg
    [op] = OperationManager.of(server.sim).operations.values()
    result = op.result
    assert result.kind == "transfer" and not result.ok
    assert result.state == "FAILED"
    # Nothing was ever committed: the fallback attempts may leave a voided
    # (truncated) destination behind, but never a full-size impostor and
    # never a commits-ledger entry claiming it durable.
    if server.host_os.fs.exists("/fb/dst"):
        assert server.host_os.fs.stat("/fb/dst").size < 64 * MB
    daemon = getattr(server.host_os, "snapify_io_daemon", None)
    if daemon is not None:
        assert "/fb/dst" not in daemon.commits
    assert not check_all(server)


# ---------------------------------------------------------------------------
# State machine: the RETRYING edge
# ---------------------------------------------------------------------------


def test_retrying_edge_legal_only_from_transferring():
    server = XeonPhiServer()
    mgr = OperationManager.of(server.sim)
    op = mgr.begin("transfer")
    with pytest.raises(SnapifyError):
        op.transition(RETRYING)  # REQUESTED -> RETRYING is illegal
    op.transition(TRANSFERRING)
    op.transition(RETRYING)
    op.transition(TRANSFERRING)  # and back: the one permitted cycle
    op.complete()
    assert op.result.ok


# ---------------------------------------------------------------------------
# Staging-buffer registrations survive resets
# ---------------------------------------------------------------------------


def test_connection_reset_releases_staging_registrations():
    """Endpoints killed mid-RDMA (daemon crash) must free their staging
    windows — the leak class the staging_buffers_released oracle pins."""
    server = XeonPhiServer()
    injector = FaultInjector(server.sim)
    server.fault_injector = injector
    src = server.phi_os(0)

    def driver(sim):
        def writer(sim):
            try:
                fd = yield from snapifyio_open(src, 0, "/lk/x", "w")
                yield from fd.write(1 * GB)
                yield from fd.finish()
            except SimError:
                pass

        sim.spawn(writer(sim), daemon=True)
        yield sim.timeout(0.05)  # mid-transfer, staging buffers registered
        injector.crash_io_daemon_now(server.host_os)
        yield sim.timeout(0.1)

    server.run(driver(server.sim))
    for label, mem in (("host", server.node.memory),
                       ("mic0", server.node.phis[0].memory)):
        assert mem.by_category.get("rdma_staging", 0) == 0, label
    assert not check_all(server)


# ---------------------------------------------------------------------------
# scp rides the PCIe link
# ---------------------------------------------------------------------------


def test_scp_traffic_counts_against_the_link():
    server = XeonPhiServer()
    phi = server.phi_os(0)
    link = server.node.phis[0].link.d2h

    def driver(sim):
        yield from phi.fs.write("/scp/src", 128 * MB)
        before = link.bytes_transferred
        yield from scp_copy(phi, server.host_os, "/scp/src", "/scp/dst",
                            server.node.params.scp)
        return link.bytes_transferred - before

    moved = server.run(driver(server.sim))
    assert moved >= 128 * MB  # every scp byte crossed the wire
    assert server.host_os.fs.stat("/scp/dst").size == 128 * MB


def test_scp_contends_with_concurrent_rdma():
    """An RDMA stream sharing the wire with scp is strictly slower than the
    same stream alone: scp's chunks occupy the FIFO link between cipher
    pacing gaps, and every RDMA burst that lands behind one waits. (The
    converse — scp slowed by RDMA — is invisible by design: the cipher is
    ~100x slower than the wire, so sub-pace link waits are absorbed.)"""
    def rdma_time(with_scp):
        server = XeonPhiServer()
        phi = server.phi_os(0)

        def driver(sim):
            yield from phi.fs.write("/ct/src", 256 * MB)

            def scp_load(s):
                yield from scp_copy(phi, server.host_os, "/ct/src", "/ct/dst",
                                    server.node.params.scp)

            if with_scp:
                sim.spawn(scp_load(sim), daemon=True)
            t0 = sim.now
            fd = yield from snapifyio_open(phi, 0, "/ct/load", "w")
            yield from fd.write(2 * GB)
            yield from fd.finish()
            return sim.now - t0

        return server.run(driver(server.sim))

    assert rdma_time(True) > rdma_time(False)
