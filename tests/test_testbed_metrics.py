"""Tests for the testbed assembly, calibration parameters, and metrics."""

import pytest

from repro.calibration import paper_testbed
from repro.coi import COIDaemon
from repro.hw import GB, KB, MB, describe
from repro.metrics import ResultTable, fmt_bytes, fmt_time
from repro.snapify_io import SnapifyIODaemon
from repro.testbed import XeonPhiCluster, XeonPhiServer


# ---------------------------------------------------------------------------
# Testbeds
# ---------------------------------------------------------------------------


def test_server_boots_full_stack():
    server = XeonPhiServer()
    assert len(server.node.phis) == 2
    assert len(server.coi_daemons) == 2
    # One Snapify-IO daemon on the host + one per card.
    assert len(server.io_daemons) == 3
    for phi in server.node.phis:
        assert COIDaemon.of(phi).proc.alive
    assert SnapifyIODaemon.of(server.host_os).proc.alive
    assert SnapifyIODaemon.of(server.phi_os(0)).proc.alive


def test_server_engines_map_to_devices():
    server = XeonPhiServer()
    assert server.engine(0).device_id == 0
    assert server.engine(1).device_id == 1
    assert server.engine(1).phi is server.node.phis[1]


def test_cluster_matches_paper_mpi_testbed():
    cluster = XeonPhiCluster(n_nodes=4)
    assert len(cluster) == 4
    assert cluster.params == paper_testbed(phis_per_node=1)
    for server in cluster.servers:
        # Fig. 11's cluster: ONE 8 GB Phi per node.
        assert len(server.node.phis) == 1
        assert server.node.phis[0].memory.capacity == 8 * GB


def test_paper_testbed_matches_table2():
    params = paper_testbed()
    assert params.host.cores == 12          # E5-2630: 6 cores x 2 threads
    assert params.host.memory.capacity == 32 * GB
    assert params.phi.cores == 60           # 5110P
    assert params.phi.threads_per_core == 4
    assert params.phi.memory.capacity == 8 * GB
    assert params.phis_per_node == 2


def test_describe_smoke():
    desc = describe(paper_testbed())
    assert "snapify-io buffer" in desc and desc["snapify-io buffer"] == "4 MB"


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def test_fmt_bytes():
    assert fmt_bytes(512) == "512 B"
    assert fmt_bytes(4 * KB) == "4.0 KB"
    assert fmt_bytes(150 * MB) == "150.0 MB"
    assert fmt_bytes(int(2.5 * GB)) == "2.50 GB"


def test_fmt_time():
    assert fmt_time(3.21) == "3.21 s"
    assert fmt_time(0.004) == "4.00 ms"
    assert fmt_time(2.5e-6) == "2.5 us"


def test_result_table_render():
    t = ResultTable("demo", ["a", "b"])
    t.add_row("x", 1)
    t.add_row("longer-cell", 22)
    t.add_note("a note")
    out = t.render()
    assert "== demo ==" in out
    assert "longer-cell | 22" in out
    assert "note: a note" in out


def test_result_table_rejects_wrong_arity():
    t = ResultTable("demo", ["a", "b"])
    with pytest.raises(ValueError):
        t.add_row("only-one")
