"""Tests for checkpoint-interval math and the resilient runner."""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import OPENMP_BENCHMARKS, OffloadApplication, expected_checksum
from repro.sched import (
    FaultInjector,
    ResilientRunner,
    daly_interval,
    expected_completion_time,
    young_interval,
)
from repro.testbed import XeonPhiServer


# ---------------------------------------------------------------------------
# Interval formulas
# ---------------------------------------------------------------------------


def test_young_formula():
    # sqrt(2 * 10 * 7200) = 379.47...
    assert young_interval(7200, 10) == pytest.approx(math.sqrt(2 * 10 * 7200))


def test_daly_close_to_young_when_cheap():
    m, c = 24 * 3600, 5.0
    assert daly_interval(m, c) == pytest.approx(young_interval(m, c), rel=0.02)


def test_daly_degenerates_when_checkpoint_expensive():
    assert daly_interval(100.0, 60.0) == 100.0


def test_interval_validation():
    with pytest.raises(ValueError):
        young_interval(-1, 1)
    with pytest.raises(ValueError):
        young_interval(1, 0)
    with pytest.raises(ValueError):
        expected_completion_time(100, 0, 1, 1, 1000)
    with pytest.raises(ValueError):
        expected_completion_time(-5, 10, 1, 1, 1000)


@settings(max_examples=40, deadline=None)
@given(
    mtbf=st.floats(min_value=100, max_value=1e6),
    cost=st.floats(min_value=0.1, max_value=30),
)
def test_property_young_interval_is_near_optimal(mtbf, cost):
    """Young's interval should (approximately) minimize the expected
    completion model — better than intervals 4x off in either direction."""
    t_opt = young_interval(mtbf, cost)
    work, restart = 10 * t_opt, cost
    best = expected_completion_time(work, t_opt, cost, restart, mtbf)
    low = expected_completion_time(work, t_opt / 4, cost, restart, mtbf)
    high = expected_completion_time(work, t_opt * 4, cost, restart, mtbf)
    assert best <= low * 1.02
    assert best <= high * 1.02


def test_expected_time_increases_with_failure_rate():
    times = [
        expected_completion_time(3600, 300, 10, 20, mtbf)
        for mtbf in (100_000, 10_000, 1_000)
    ]
    assert times[0] < times[1] < times[2]


# ---------------------------------------------------------------------------
# ResilientRunner
# ---------------------------------------------------------------------------


def make_app(server, iterations=80):
    profile = replace(OPENMP_BENCHMARKS["MC"], iterations=iterations)
    return OffloadApplication(server, profile)


def test_runner_without_failures_just_checkpoints():
    server = XeonPhiServer()
    app = make_app(server, iterations=60)
    runner = ResilientRunner(server, app, interval=0.5)

    def driver(sim):
        store = yield from runner.run()
        return store

    store = server.run(driver(server.sim))
    assert store["checksum"] == expected_checksum(60)
    assert runner.checkpoints_taken >= 1
    assert runner.restarts == 0


def test_runner_survives_card_failure():
    server = XeonPhiServer()
    injector = FaultInjector(server.sim)
    app = make_app(server, iterations=100)
    runner = ResilientRunner(server, app, interval=0.4)

    def driver(sim):
        injector.schedule_card_failure(server.node.phis[0], at=1.3)
        store = yield from runner.run()
        return store

    store = server.run(driver(server.sim))
    assert store["checksum"] == expected_checksum(100)
    assert runner.restarts == 1
    # The job finished on the surviving card.
    assert app.host_proc.runtime["coi_handle"].offload_proc.os is server.phi_os(1)


def test_runner_survives_repeated_failures():
    """mic0 dies, the job moves to mic1, which also dies later... as long
    as one card is healthy at each failure, the job completes."""
    server = XeonPhiServer()
    injector = FaultInjector(server.sim)
    app = make_app(server, iterations=150)
    runner = ResilientRunner(server, app, interval=0.4)

    def driver(sim):
        injector.schedule_card_failure(server.node.phis[0], at=1.3)
        store = yield from runner.run()
        return store

    store = server.run(driver(server.sim))
    assert store["checksum"] == expected_checksum(150)
    assert runner.restarts >= 1


def test_runner_failure_before_first_checkpoint():
    server = XeonPhiServer()
    injector = FaultInjector(server.sim)
    app = make_app(server, iterations=400)
    runner = ResilientRunner(server, app, interval=50.0)  # too lazy

    def driver(sim):
        injector.schedule_card_failure(server.node.phis[0], at=1.0)
        try:
            yield from runner.run()
        except RuntimeError as exc:
            return str(exc)

    msg = server.run(driver(server.sim))
    assert "before the first checkpoint" in msg


def test_runner_rejects_bad_interval():
    server = XeonPhiServer()
    with pytest.raises(ValueError):
        ResilientRunner(server, make_app(server), interval=0)


def test_runner_rejects_bad_recovery_knobs():
    server = XeonPhiServer()
    app = make_app(server)
    with pytest.raises(ValueError, match="detection latency"):
        ResilientRunner(server, app, interval=0.5,
                        detection_latency=-0.1)
    with pytest.raises(ValueError, match="recovery attempt"):
        ResilientRunner(server, app, interval=0.5,
                        max_recover_attempts=0)


def test_detection_latency_delays_the_restart():
    """The runner must not react faster than its failure-detection window:
    the restart lands at least ``detection_latency`` after the failure."""
    server = XeonPhiServer()
    injector = FaultInjector(server.sim)
    app = make_app(server, iterations=100)
    runner = ResilientRunner(server, app, interval=0.4,
                             detection_latency=0.5)

    def driver(sim):
        injector.schedule_card_failure(server.node.phis[0], at=1.3)
        store = yield from runner.run()
        return store

    store = server.run(driver(server.sim))
    assert store["checksum"] == expected_checksum(100)
    failure_t = next(e[1] for e in runner.events if e[0] == "failure")
    restart_t = next(e[2] for e in runner.events if e[0] == "restart")
    assert restart_t - failure_t >= 0.5


def test_recovery_gives_up_after_bounded_attempts():
    """Every card dead: each retry re-picks a card, finds none, backs off —
    and after ``max_recover_attempts`` the failure propagates instead of
    retrying forever."""
    server = XeonPhiServer()
    injector = FaultInjector(server.sim)
    app = make_app(server, iterations=200)
    runner = ResilientRunner(server, app, interval=0.4,
                             max_recover_attempts=3)
    out = {}

    def driver(sim):
        for phi in server.node.phis:
            injector.schedule_card_failure(phi, at=1.3)
        try:
            yield from runner.run()
        except RuntimeError as exc:
            out["error"] = str(exc)

    server.run(driver(server.sim))
    assert "no healthy coprocessor" in out["error"]
    retries = [e for e in runner.events if e[0] == "recover_retry"]
    assert len(retries) == 2  # attempts 1 and 2 retried; attempt 3 raised


def test_recovery_retry_is_rescued_by_a_repaired_card():
    """A retry after the back-off finds the repaired card and completes —
    the bounded-retry loop's success path."""
    server = XeonPhiServer()
    injector = FaultInjector(server.sim)
    app = make_app(server, iterations=100)
    runner = ResilientRunner(server, app, interval=0.4,
                             detection_latency=0.2, max_recover_attempts=5)

    def driver(sim):
        # Both cards die; mic1 comes back inside the retry horizon.
        injector.schedule_card_failure(server.node.phis[0], at=1.3)
        injector.schedule_card_failure(server.node.phis[1], at=1.3,
                                       repair_after=0.5)
        store = yield from runner.run()
        return store

    store = server.run(driver(server.sim))
    assert store["checksum"] == expected_checksum(100)
    assert runner.restarts >= 1
    assert any(e[0] == "recover_retry" for e in runner.events)


def test_runner_restart_from_scratch_policy():
    """With the relaunch policy, an early failure costs a full rerun but
    the job still completes correctly."""
    server = XeonPhiServer()
    injector = FaultInjector(server.sim)
    app = make_app(server, iterations=120)
    runner = ResilientRunner(server, app, interval=60.0,
                             restart_from_scratch=True)

    def driver(sim):
        injector.schedule_card_failure(server.node.phis[0], at=0.9)
        store = yield from runner.run()
        return store

    store = server.run(driver(server.sim))
    assert store["checksum"] == expected_checksum(120)
    assert runner.restarts == 1
    assert ("relaunch", pytest.approx(runner.events[-1][1])) == runner.events[-1]


def test_runner_survives_restore_from_same_snapshot_twice():
    """Two failures, one snapshot: both recoveries restore from the same
    directory (the aliasing-regression scenario) and the checksum holds."""
    server = XeonPhiServer()
    injector = FaultInjector(server.sim)
    app = make_app(server, iterations=900)
    runner = ResilientRunner(server, app, interval=2.0)

    def driver(sim):
        # First failure after checkpoint #0 (~t=2.8); the job restarts
        # around t=5.3. Second failure before checkpoint #1 (~t=7.5) kills
        # the restarted job too — BOTH recoveries restore from checkpoint #0.
        injector.schedule_card_failure(server.node.phis[0], at=3.0,
                                       repair_after=1.5)
        injector.schedule_card_failure(server.node.phis[0], at=6.5,
                                       repair_after=1.5)
        store = yield from runner.run()
        return store

    store = server.run(driver(server.sim))
    assert store["checksum"] == expected_checksum(900)
    assert runner.restarts >= 2
    # Both restores used checkpoint #0.
    restore_paths = [e[1] for e in runner.events if e[0] == "restart"]
    assert len(set(restore_paths)) == 1
