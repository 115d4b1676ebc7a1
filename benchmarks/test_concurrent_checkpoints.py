"""N concurrent checkpoints on one card vs the same N taken back-to-back.

The operation state machine makes overlapping captures on one daemon safe
(correlation-id demultiplexing); this benchmark shows they are also worth
it: the pause handshakes, local-store drains and BLCR streams of N offload
processes overlap, so ``snapshot_application``'s wall time sits well below
N sequential checkpoints — while every operation still completes DONE with
its own pid, snapshot path and sizes.
"""

from __future__ import annotations

import pytest

from repro.coi import OffloadBinary, OffloadFunction
from repro.hw import MB
from repro.metrics import ResultTable, fmt_time
from repro.snapify import capture_sequence, snapify_t, snapshot_application
from repro.testbed import XeonPhiServer, offload_process

NS = (1, 2, 4, 8)


def _boot(n: int):
    """A server with n independent offload processes on card 0."""
    server = XeonPhiServer()
    snaps = []

    def setup(sim):
        for i in range(n):
            binary = OffloadBinary(
                f"cc{i}.so", 8 * MB,
                {"step": OffloadFunction("step", duration=0.05)},
            )
            coiproc, _ = yield from offload_process(
                server, f"cc{i}", binary, buffers=[(16 * MB, i + 1)]
            )
            snaps.append(snapify_t(snapshot_path=f"/bench/cc{i}", coiproc=coiproc))

    server.run(setup(server.sim))
    return server, snaps


def run_concurrent(n: int):
    server, snaps = _boot(n)
    t0 = server.now

    def driver(sim):
        return (yield from snapshot_application(snaps))

    results = server.run(driver(server.sim))
    return server.now - t0, results, snaps


def run_sequential(n: int):
    server, snaps = _boot(n)
    t0 = server.now

    def driver(sim):
        out = []
        for snap in snaps:
            out.append((yield from capture_sequence(snap)))
        return out

    results = server.run(driver(server.sim))
    return server.now - t0, results, snaps


@pytest.fixture(scope="module")
def sweep():
    out = {}
    for n in NS:
        seq_t, seq_r, _ = run_sequential(n)
        con_t, con_r, con_snaps = run_concurrent(n)
        out[n] = {
            "sequential": seq_t, "concurrent": con_t,
            "seq_results": seq_r, "con_results": con_r,
            "con_snaps": con_snaps,
        }
    return out


def test_concurrent_checkpoints_report(sweep, sim_benchmark):
    sim_benchmark(lambda: None)
    t = ResultTable(
        "N concurrent checkpoints on one card (simulated wall time)",
        ["N", "sequential", "concurrent", "speedup"],
    )
    for n in NS:
        row = sweep[n]
        t.add_row(
            str(n), fmt_time(row["sequential"]), fmt_time(row["concurrent"]),
            f"{row['sequential'] / row['concurrent']:.2f}x",
        )
    t.add_note("concurrent = snapshot_application (operation manager); "
               "sequential = back-to-back capture_sequence on the same topology")
    t.show()


def test_every_operation_completes_with_its_own_attribution(sweep):
    for n in NS:
        results = sweep[n]["con_results"]
        snaps = sweep[n]["con_snaps"]
        assert len(results) == n
        assert all(r.ok and r.state == "DONE" for r in results)
        assert len({r.op_id for r in results}) == n
        for r, snap in zip(results, snaps):
            assert r.pid == snap.coiproc.offload_proc.pid
            assert r.snapshot_path == snap.snapshot_path
            assert r.image_bytes > 0
            assert r.localstore_bytes == 16 * MB


def test_concurrency_beats_sequential(sweep):
    """Overlap pays: the pause/capture pipelines of N processes interleave,
    so concurrent wall time is strictly below sequential for every N > 1
    (the shared PCIe link bounds the speedup below N)."""
    assert sweep[1]["concurrent"] == pytest.approx(sweep[1]["sequential"], rel=0.05)
    for n in NS[1:]:
        assert sweep[n]["concurrent"] < sweep[n]["sequential"]
    assert sweep[8]["concurrent"] < 0.8 * sweep[8]["sequential"]
