"""Figure 10(d): process migration time (card 0 -> card 1).

Shape criteria from §7:
* migration time "is strongly correlated with the size of the local store
  and the snapshot of an offload process";
* MC is the fastest to migrate (paper: 4.9 s) and SS the slowest (31.6 s);
* "In all but one benchmarks the time of capturing and saving the snapshot
  of an offload process is shorter than the time of reading the snapshot
  and restoring" (Snapify-IO writes faster than it reads).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.apps import OPENMP_BENCHMARKS, OPENMP_NAMES, OffloadApplication
from repro.metrics import ResultTable, fmt_time
from repro.snapify.usecases import snapify_migration
from repro.testbed import XeonPhiServer


def run_migrations():
    results = {}
    for name in OPENMP_NAMES:
        profile = replace(OPENMP_BENCHMARKS[name], iterations=10_000)
        server = XeonPhiServer()
        app = OffloadApplication(server, profile)

        def driver(sim):
            yield from app.launch()
            yield sim.timeout(1.0)
            new, results = yield from snapify_migration(
                app.coiproc, server.engine(1), snapshot_path=f"/migr/{name}"
            )
            app.host_proc.runtime["coi_handle"] = new
            assert new.offload_proc.os is server.phi_os(1)
            return results

        results[name] = server.run(driver(server.sim))
    return results


@pytest.fixture(scope="module")
def fig10d():
    return run_migrations()


def migration_total(out, inn):
    return inn.finished - out.started


def test_fig10d_report(fig10d, sim_benchmark):
    sim_benchmark(lambda: None)
    t = ResultTable(
        "Figure 10(d) — migration time (mic0 -> mic1)",
        ["benchmark", "pause", "capture", "restore", "total"],
    )
    for name in OPENMP_NAMES:
        out, inn = fig10d[name]
        t.add_row(
            name,
            fmt_time(out.phases["pausing"]),
            fmt_time(out.phases["capturing"]),
            fmt_time(inn.restore_s),
            fmt_time(migration_total(out, inn)),
        )
    t.add_note("paper: 4.9 s (MC) to 31.6 s (SS); restore usually exceeds "
               "capture (Snapify-IO writes beat reads)")
    t.show()
    test_mc_fastest_ss_slowest(fig10d)
    test_time_tracks_state_size(fig10d)
    test_restore_usually_slower_than_capture(fig10d)


def test_mc_fastest_ss_slowest(fig10d):
    totals = {n: migration_total(*r) for n, r in fig10d.items()}
    assert min(totals, key=totals.get) == "MC"
    assert max(totals, key=totals.get) == "SS"
    assert totals["SS"] / totals["MC"] > 3  # paper: 31.6 / 4.9 ≈ 6.4


def test_time_tracks_state_size(fig10d):
    """Migration time correlates with local store + offload snapshot size."""
    totals = {n: migration_total(*r) for n, r in fig10d.items()}
    state = {
        n: OPENMP_BENCHMARKS[n].local_store + OPENMP_BENCHMARKS[n].offload_heap
        for n in OPENMP_NAMES
    }
    by_time = sorted(OPENMP_NAMES, key=totals.get)
    by_state = sorted(OPENMP_NAMES, key=state.get)
    # Rank correlation: at least 6 of 8 in identical rank positions.
    matches = sum(1 for a, b in zip(by_time, by_state) if a == b)
    assert matches >= 6, f"time order {by_time} vs state order {by_state}"


def test_restore_usually_slower_than_capture(fig10d):
    slower = [
        n for n in OPENMP_NAMES
        if fig10d[n][1].restore_s > fig10d[n][0].phases["capturing"]
    ]
    # Paper: "in all but one benchmarks".
    assert len(slower) >= 7, f"restore>capture only for {slower}"
