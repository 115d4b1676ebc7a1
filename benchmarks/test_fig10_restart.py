"""Figure 10(c): restart time breakdown for the 8 OpenMP benchmarks.

Shape criteria from §7:
* total restart is seconds-scale (paper: 3-24 s);
* the host-restart stage varies with host-snapshot size: SS and SG have the
  longest host restarts;
* the offload-restore stage strongly depends on the local-store size
  (copied back from the host to the coprocessor).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.apps import OPENMP_BENCHMARKS, OPENMP_NAMES, OffloadApplication
from repro.metrics import ResultTable, fmt_time
from repro.snapify import checkpoint_offload_app, restart_offload_app, snapify_t
from repro.testbed import XeonPhiServer


def run_restarts():
    results = {}
    for name in OPENMP_NAMES:
        profile = replace(OPENMP_BENCHMARKS[name], iterations=10_000)
        server = XeonPhiServer()
        app = OffloadApplication(server, profile)

        def driver(sim):
            yield from app.launch()
            yield sim.timeout(1.0)
            snap = snapify_t(snapshot_path=f"/snap/{name}", coiproc=app.coiproc)
            yield from checkpoint_offload_app(snap)
            yield sim.timeout(0.1)
            app.host_proc.terminate(code=1)  # failure
            yield sim.timeout(0.05)
            server.host_os.fs.drop_caches()  # the node rebooted
            result = yield from restart_offload_app(
                server.host_os, f"/snap/{name}", server.engine(0)
            )
            return result.result

        results[name] = server.run(driver(server.sim))
    return results


@pytest.fixture(scope="module")
def fig10c():
    return run_restarts()


def restart_total(r):
    return r.host_restart_s + r.elapsed


def test_fig10c_report(fig10c, sim_benchmark):
    sim_benchmark(lambda: None)
    t = ResultTable(
        "Figure 10(c) — restart time breakdown",
        ["benchmark", "host restart", "offload restore", "total"],
    )
    for name in OPENMP_NAMES:
        s = fig10c[name]
        t.add_row(
            name,
            fmt_time(s.host_restart_s),
            fmt_time(s.elapsed),
            fmt_time(restart_total(s)),
        )
    t.add_note("paper: totals 3-24 s; host restart longest for SS/SG; "
               "offload restore tracks local-store size")
    t.show()
    test_ss_sg_have_longest_host_restarts(fig10c)
    test_offload_restore_tracks_local_store(fig10c)
    test_total_ordering(fig10c)


def test_ss_sg_have_longest_host_restarts(fig10c):
    host_t = {n: s.host_restart_s for n, s in fig10c.items()}
    assert set(sorted(host_t, key=host_t.get, reverse=True)[:2]) == {"SS", "SG"}


def test_offload_restore_tracks_local_store(fig10c):
    restore_t = {n: s.elapsed for n, s in fig10c.items()}
    ls = {n: OPENMP_BENCHMARKS[n].local_store for n in OPENMP_NAMES}
    assert max(restore_t, key=restore_t.get) == max(ls, key=ls.get) == "SS"
    assert min(restore_t, key=restore_t.get) == min(ls, key=ls.get) == "MC"


def test_total_ordering(fig10c):
    totals = {n: restart_total(s) for n, s in fig10c.items()}
    assert min(totals, key=totals.get) == "MC"
    assert max(totals, key=totals.get) in ("SS", "SG")
    assert totals["SS"] > 4 * totals["MC"]
