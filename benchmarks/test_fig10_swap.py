"""Figures 10(e) and 10(f): swap-out and swap-in times.

Shape criteria from §7:
* swap-out: 2.1-11.8 s, swap-in: 2-14.8 s in the paper (seconds-scale,
  smallest for MC, largest for SS);
* "Except in the case of SS and SG, the pause of swapping-out is much
  shorter than the time of the capturing phase" — because SS/SG's local
  stores (saved during pause) are larger than their offload snapshots
  (saved during capture);
* swap-out releases the card memory the job was pinning.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.apps import OPENMP_BENCHMARKS, OPENMP_NAMES, OffloadApplication
from repro.metrics import ResultTable, fmt_time
from repro.snapify.usecases import snapify_swapin, snapify_swapout
from repro.testbed import XeonPhiServer


def run_swaps():
    results = {}
    for name in OPENMP_NAMES:
        profile = replace(OPENMP_BENCHMARKS[name], iterations=10_000)
        server = XeonPhiServer()
        app = OffloadApplication(server, profile)

        def driver(sim):
            yield from app.launch()
            yield sim.timeout(1.0)
            ramfs_before = server.node.phis[0].memory.by_category.get("ramfs", 0)
            snap = yield from snapify_swapout(f"/swap/{name}", app.coiproc)
            out = snap.op.result
            ramfs_during = server.node.phis[0].memory.by_category.get("ramfs", 0)
            new = yield from snapify_swapin(snap, server.engine(0))
            app.host_proc.runtime["coi_handle"] = new
            return (out, snap.op.result), ramfs_before, ramfs_during

        results[name] = server.run(driver(server.sim))
    return results


@pytest.fixture(scope="module")
def fig10ef():
    return run_swaps()


def test_fig10ef_report(fig10ef, sim_benchmark):
    sim_benchmark(lambda: None)
    t = ResultTable(
        "Figure 10(e)+(f) — swap-out / swap-in",
        ["benchmark", "pause", "capture", "swap-out total", "swap-in total"],
    )
    for name in OPENMP_NAMES:
        (out, inn), _, _ = fig10ef[name]
        t.add_row(
            name,
            fmt_time(out.phases["pausing"]),
            fmt_time(out.phases["capturing"]),
            fmt_time(out.elapsed),
            fmt_time(inn.elapsed),
        )
    t.add_note("paper: swap-out 2.1-11.8 s, swap-in 2-14.8 s; pause > "
               "capture only for SS/SG")
    t.show()
    test_pause_vs_capture_split(fig10ef)
    test_swap_extremes(fig10ef)
    test_swapout_frees_card_memory(fig10ef)


def test_pause_vs_capture_split(fig10ef):
    for name in OPENMP_NAMES:
        (out, _), _, _ = fig10ef[name]
        if name in ("SS", "SG"):
            assert out.phases["pausing"] > out.phases["capturing"], name
        else:
            # "the pause of swapping-out is much shorter than the capture"
            assert out.phases["capturing"] > out.phases["pausing"], name


def test_swap_extremes(fig10ef):
    outs = {n: out.elapsed for n, ((out, _), _, _) in fig10ef.items()}
    ins = {n: inn.elapsed for n, ((_, inn), _, _) in fig10ef.items()}
    assert min(outs, key=outs.get) == "MC"
    assert max(outs, key=outs.get) == "SS"
    assert max(ins, key=ins.get) == "SS"
    # Swap-in of the largest job exceeds its swap-out (reads are slower).
    assert ins["SS"] > outs["SS"] * 0.8


def test_swapout_frees_card_memory(fig10ef):
    for name in OPENMP_NAMES:
        _, before, during = fig10ef[name]
        assert before > 0
        assert during == 0, f"{name}: local store not released on swap-out"
