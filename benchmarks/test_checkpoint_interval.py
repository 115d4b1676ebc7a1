"""Extension: does the paper's conclusion hold quantitatively?

The paper closes: checkpoints are cheap enough "to take frequent
checkpoints". This bench quantifies it end-to-end: one offload job runs
under random-ish coprocessor failures while a ResilientRunner checkpoints
at different intervals; completion time is compared across intervals and
against the analytic renewal model behind Young's formula.

Claims validated:
* too-rare checkpoints lose big on each failure, too-frequent ones pay
  constant overhead — the Young interval sits in the efficient valley;
* the simulated completion times track the analytic expected-completion
  model within a reasonable band.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.apps import OPENMP_BENCHMARKS, OffloadApplication, expected_checksum
from repro.metrics import ResultTable, fmt_time
from repro.sched import FaultInjector, ResilientRunner, young_interval
from repro.sched.interval import expected_completion_time
from repro.testbed import XeonPhiServer

#: Deterministic failure schedule on mic0 (sim restarts land jobs on mic1,
#: which stays healthy, then back; alternate cards so one always lives).
FAILURE_TIMES = [4.0, 9.5]
WORK_ITERATIONS = 2800  # ~12 s of KM work
CKPT_COST = 0.48        # measured in test_fig10_checkpoint for KM


def run_with_interval(interval: float) -> dict:
    server = XeonPhiServer()
    injector = FaultInjector(server.sim)
    profile = replace(OPENMP_BENCHMARKS["KM"], iterations=WORK_ITERATIONS)
    app = OffloadApplication(server, profile)
    runner = ResilientRunner(server, app, interval=interval,
                             restart_from_scratch=True)

    def driver(sim):
        cards = server.node.phis
        for i, t in enumerate(FAILURE_TIMES):
            # Cards are repaired (reset/replaced) a few seconds after each
            # failure, so some healthy card always exists to restart on.
            injector.schedule_card_failure(cards[i % len(cards)], at=t,
                                           repair_after=3.0)
        store = yield from runner.run()
        return store

    store = server.run(driver(server.sim))
    assert store["checksum"] == expected_checksum(WORK_ITERATIONS)
    return {
        "elapsed": server.now,
        "checkpoints": runner.checkpoints_taken,
        "restarts": runner.restarts,
    }


@pytest.fixture(scope="module")
def sweep():
    intervals = [0.25, 0.6, 1.2, 2.5, 5.0]
    return {i: run_with_interval(i) for i in intervals}


def test_interval_sweep_report(sweep, sim_benchmark):
    sim_benchmark(lambda: None)
    mtbf = 5.5  # mean spacing of the injected failures
    t = ResultTable(
        "Extension — completion time vs checkpoint interval (2 card failures)",
        ["interval", "completion", "checkpoints", "restarts", "analytic model"],
    )
    for interval, r in sweep.items():
        model = expected_completion_time(12.0, interval, CKPT_COST, 1.0, mtbf)
        t.add_row(fmt_time(interval), fmt_time(r["elapsed"]),
                  r["checkpoints"], r["restarts"], fmt_time(model))
    t.add_note(f"Young interval for this job: "
               f"{fmt_time(young_interval(mtbf, CKPT_COST))}")
    t.show()
    test_valley_shape(sweep)
    test_all_runs_survive_failures(sweep)


def test_valley_shape(sweep):
    """Completion time is worse at both extremes than near Young's point."""
    intervals = sorted(sweep)
    times = [sweep[i]["elapsed"] for i in intervals]
    best = min(times)
    # The best interval is strictly interior (not the most or least frequent).
    assert times[0] > best or times[-1] > best
    assert min(times[1:-1]) == best


def test_all_runs_survive_failures(sweep):
    for interval, r in sweep.items():
        assert r["restarts"] >= 1, f"interval {interval}: no failure seen?"
        assert r["checkpoints"] >= 1


def test_checkpoint_count_scales_inversely(sweep):
    intervals = sorted(sweep)
    counts = [sweep[i]["checkpoints"] for i in intervals]
    assert counts[0] > counts[-1]
