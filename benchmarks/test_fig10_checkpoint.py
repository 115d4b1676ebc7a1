"""Figure 10(a)+(b): checkpoint time breakdown and checkpoint file sizes
for the 8 OpenMP benchmarks.

Shape criteria from §7:
* pause is longer for benchmarks with large local stores (SS, SG);
* the host-side BLCR snapshot dominates for SS and SG (their host snapshots
  are the biggest files, up to ~1.3 GB), while their offload snapshots are
  comparatively small;
* checkpoint file sizes span ~8 MB to ~1.3 GB across the suite;
* total checkpoint time is seconds-scale, largest for SS/SG, smallest for MC.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.apps import OPENMP_BENCHMARKS, OPENMP_NAMES, OffloadApplication
from repro.hw.params import GB, MB
from repro.metrics import ResultTable, fmt_bytes, fmt_time
from repro.snapify import checkpoint_offload_app, snapify_t
from repro.testbed import XeonPhiServer


def run_checkpoints():
    results = {}
    for name in OPENMP_NAMES:
        profile = replace(OPENMP_BENCHMARKS[name], iterations=10_000)
        server = XeonPhiServer()
        app = OffloadApplication(server, profile)

        def driver(sim):
            yield from app.launch()
            yield sim.timeout(1.0)  # mid-run
            snap = snapify_t(snapshot_path=f"/snap/{name}", coiproc=app.coiproc)
            yield from checkpoint_offload_app(snap)
            return snap.op.result

        results[name] = server.run(driver(server.sim))
    return results


@pytest.fixture(scope="module")
def fig10ab():
    return run_checkpoints()


def test_fig10ab_report(fig10ab, sim_benchmark):
    sim_benchmark(lambda: None)
    t = ResultTable(
        "Figure 10(a) — checkpoint time breakdown",
        ["benchmark", "pause", "host snapshot", "device capture", "total"],
    )
    for name in OPENMP_NAMES:
        s = fig10ab[name]
        t.add_row(
            name,
            fmt_time(s.phases["pausing"]),
            fmt_time(s.host_snapshot_s),
            fmt_time(s.phases["capturing"]),
            fmt_time(s.elapsed),
        )
    t.add_note("paper: totals 3-21 s; pause dominated by local-store save; "
               "host snapshot dominates SS/SG")
    t.show()

    t = ResultTable(
        "Figure 10(b) — checkpoint file sizes",
        ["benchmark", "host snapshot", "offload snapshot", "local store"],
    )
    for name in OPENMP_NAMES:
        s = fig10ab[name]
        t.add_row(
            name,
            fmt_bytes(s.host_snapshot_bytes),
            fmt_bytes(s.image_bytes),
            fmt_bytes(s.localstore_bytes),
        )
    t.add_note("paper: sizes range ~8 MB to ~1.3 GB; SS/SG: big host "
               "snapshot + big local store, small offload snapshot")
    t.show()
    test_ss_sg_have_biggest_host_snapshots(fig10ab)
    test_size_range_matches_paper(fig10ab)
    test_mc_cheapest_ss_most_expensive(fig10ab)
    test_pause_tracks_local_store(fig10ab)
    test_host_side_dominates_for_ss_sg(fig10ab)


def test_ss_sg_have_biggest_host_snapshots(fig10ab):
    hosts = {n: s.host_snapshot_bytes for n, s in fig10ab.items()}
    top_two = sorted(hosts, key=hosts.get, reverse=True)[:2]
    assert set(top_two) == {"SS", "SG"}
    # ... while their offload snapshots are comparatively small.
    for n in ("SS", "SG"):
        assert fig10ab[n].image_bytes < hosts[n] / 4


def test_size_range_matches_paper(fig10ab):
    all_sizes = [
        size
        for s in fig10ab.values()
        for size in (s.host_snapshot_bytes, s.image_bytes, s.localstore_bytes)
    ]
    assert min(all_sizes) < 30 * MB
    assert 1.0 * GB < max(all_sizes) < 1.8 * GB  # paper caps at ~1.3 GB


def test_mc_cheapest_ss_most_expensive(fig10ab):
    totals = {n: s.elapsed for n, s in fig10ab.items()}
    assert min(totals, key=totals.get) == "MC"
    assert max(totals, key=totals.get) in ("SS", "SG")
    assert totals["SS"] > 4 * totals["MC"]


def test_pause_tracks_local_store(fig10ab):
    """Pause time ordering follows local-store size ordering."""
    pauses = {n: s.phases["pausing"] for n, s in fig10ab.items()}
    ls = {n: s.localstore_bytes for n, s in fig10ab.items()}
    assert max(pauses, key=pauses.get) == max(ls, key=ls.get) == "SS"
    assert pauses["SS"] > 2 * pauses["MC"]


def test_host_side_dominates_for_ss_sg(fig10ab):
    for n in ("SS", "SG"):
        s = fig10ab[n]
        assert s.host_snapshot_s > s.phases["capturing"]
    # ... and the reverse for a card-heavy benchmark like FT.
    s = fig10ab["FT"]
    assert s.phases["capturing"] > s.host_snapshot_s
