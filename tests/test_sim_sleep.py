"""``Simulator.sleep``: the event-free cost sleep.

``yield sim.sleep(d)`` costs one heap entry and no event: the sleeper resumes
from its timer entry, exactly where a ``sim.schedule(d, fn)`` callback drawn
at the same instant would run, with one sequence draw per sleep. These tests
pin that ordering against a callback-chain twin, the interrupt/kill
interactions of the sleep token, the allocation claim, and a source guard
that keeps the event form out of the package's direct yields.
"""

import ast
from pathlib import Path

import pytest

from repro.sim import Event, Interrupted, Simulator, ThreadKilled

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


# ---------------------------------------------------------------------------
# Basics
# ---------------------------------------------------------------------------


def test_sleep_advances_clock_and_returns_none():
    sim = Simulator()

    def worker(sim):
        got = yield sim.sleep(1.5)
        return got, sim.now

    t = sim.spawn(worker(sim))
    sim.run()
    assert t.done.value == (None, 1.5)


def test_sleep_zero_and_int_delays():
    sim = Simulator()
    assert sim.sleep(0) == 0.0 and type(sim.sleep(0)) is float
    assert sim.sleep(2) == 2.0 and type(sim.sleep(2)) is float
    order = []

    def sleeper(sim):
        yield sim.sleep(0)
        order.append(("zero", sim.now))
        yield sim.sleep(2)
        order.append(("int", sim.now))

    sim.spawn(sleeper(sim))
    sim.schedule(0.0, order.append, ("scheduled", 0.0))
    sim.run()
    # sleep(0) yields to entries already queued at the same instant.
    assert order == [("scheduled", 0.0), ("zero", 0.0), ("int", 2.0)]


def test_negative_sleep_raises_at_the_call_site():
    sim = Simulator()
    with pytest.raises(ValueError, match="negative sleep"):
        sim.sleep(-1e-9)

    def worker(sim):
        try:
            yield sim.sleep(-1)
        except ValueError:
            return "caught"

    t = sim.spawn(worker(sim))
    sim.run()
    assert t.done.value == "caught"


def test_yielding_a_non_float_number_is_still_an_error():
    sim = Simulator()

    def worker(sim):
        yield 1

    t = sim.spawn(worker(sim))
    sim.run()
    assert isinstance(t.done.exception, TypeError)
    assert "sim.sleep()" in str(t.done.exception)


# ---------------------------------------------------------------------------
# Interrupt / kill mid-sleep: the stale wake entry must be ignored
# ---------------------------------------------------------------------------


def test_interrupt_mid_sleep_then_sleep_again_is_not_woken_early():
    sim = Simulator()
    seen = []

    def worker(sim):
        try:
            yield sim.sleep(10)
            seen.append(("slept", sim.now))
        except Interrupted:
            seen.append(("interrupted", sim.now))
        # Re-sleep past the stale t=10 entry of the first sleep.
        yield sim.sleep(20)
        seen.append(("woke", sim.now))

    t = sim.spawn(worker(sim))
    sim.schedule(5.0, t.interrupt)
    sim.run()
    assert seen == [("interrupted", 5.0), ("woke", 25.0)]


def test_stale_wake_at_the_same_instant_as_the_new_sleep_resumes_once():
    sim = Simulator()
    resumes = []

    def worker(sim):
        try:
            yield sim.sleep(10)
        except Interrupted:
            pass
        yield sim.sleep(5)  # lands on t=10, beside the stale entry
        return sim.now

    class LoggedGen:
        """The worker's generator, logging every resume but the first."""

        def __init__(self, gen):
            self.gen = gen
            self.started = False

        def _log(self):
            if self.started:
                resumes.append(sim.now)
            self.started = True

        def send(self, value):
            self._log()
            return self.gen.send(value)

        def throw(self, exc):
            self._log()
            return self.gen.throw(exc)

        def close(self):
            self.gen.close()

    t = sim.spawn(LoggedGen(worker(sim)))
    sim.schedule(5.0, t.interrupt)
    sim.run()
    assert t.done.value == 10.0
    # Interrupt, then one wake: the stale entry adds no second one.
    assert resumes == [5.0, 10.0]


def test_interrupted_sleeper_blocked_on_an_event_ignores_the_stale_wake():
    sim = Simulator()
    ev = sim.event("gate")

    def worker(sim):
        try:
            yield sim.sleep(10)
        except Interrupted:
            pass
        value = yield ev
        return value, sim.now

    t = sim.spawn(worker(sim))
    sim.schedule(5.0, t.interrupt)
    sim.schedule(30.0, ev.succeed, "open")
    sim.run()
    assert t.done.value == ("open", 30.0)


def test_kill_mid_sleep():
    sim = Simulator()
    cleaned = []

    def worker(sim):
        try:
            yield sim.sleep(10)
            cleaned.append("resumed")
        finally:
            cleaned.append(("finally", sim.now))

    t = sim.spawn(worker(sim))
    sim.schedule(4.0, t.kill)
    sim.run()
    assert cleaned == [("finally", 4.0)]
    assert isinstance(t.done.exception, ThreadKilled)
    assert t.blocked_on is None
    # The stale wake entry still pops at t=10 and resumes nothing.
    assert sim.now == 10.0


# ---------------------------------------------------------------------------
# Ordering: a sleep is a scheduled callback, entry for entry
# ---------------------------------------------------------------------------


def _mixed_workload(sim, use_sleep):
    """Sleepers and raw entries colliding at shared instants; returns the
    log and the next sequence key. With ``use_sleep=False`` each sleeper is
    replaced by its callback-chain twin."""
    log = []

    def sleeper(name, delays):
        for d in delays:
            yield sim.sleep(d)
            log.append((name, sim.now))

    def hop(name, delays, i):
        # Twin of ``sleeper``: hop 0 stands for the thread's first step,
        # each later hop for the resume after one sleep.
        if i:
            log.append((name, sim.now))
        if i < len(delays):
            sim.schedule(delays[i], hop, name, delays, i + 1)

    def start(name, delays):
        if use_sleep:
            sim.spawn(sleeper(name, delays), name=name)
        else:
            sim.schedule(0.0, hop, name, delays, 0)  # where spawn queues step one

    def timer_user(name):
        # Always the event form, so both variants interleave with it.
        yield sim.timeout(1.0)
        log.append((name, sim.now))
        yield sim.any_of([sim.timeout(1.0), sim.event("never")])
        log.append((name, sim.now))

    start("a", [1.0, 1.0, 0.0, 0.5])
    start("b", [0.5, 0.5, 1.0])
    sim.spawn(timer_user("c"), name="c")
    start("d", [2.0, 0.0, 0.0])
    sim.schedule(1.0, log.append, ("sched", 1.0))
    sim.at(2.0).add_callback(lambda ev: log.append(("at", sim.now)))
    sim.timeout(2.0).add_callback(lambda ev: log.append(("timeout-cb", sim.now)))
    sim.run()
    return log, next(sim._seq)


@pytest.mark.parametrize("schedule_seed", [None, 0, 1, 2, 3, 20])
def test_same_time_ordering_matches_a_schedule_callback(schedule_seed):
    by_sleep = _mixed_workload(Simulator(schedule_seed=schedule_seed), True)
    by_callback = _mixed_workload(Simulator(schedule_seed=schedule_seed), False)
    # Same log and the same number of sequence draws (heap entries).
    assert by_sleep == by_callback


@pytest.mark.parametrize("schedule_seed", [5, 6, 7])
def test_schedule_seed_run_mixing_sleeps_and_timeouts_replays(schedule_seed):
    first = _mixed_workload(Simulator(schedule_seed=schedule_seed), True)
    again = _mixed_workload(Simulator(schedule_seed=schedule_seed), True)
    assert first == again


# ---------------------------------------------------------------------------
# Allocation and diagnostics
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 10, 500])
def test_sleeping_allocates_no_event(monkeypatch, n):
    created = []
    init = Event.__init__

    def counting_init(self, *args, **kwargs):
        created.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Event, "__init__", counting_init)
    sim = Simulator()

    def worker(sim):
        for _ in range(n):
            yield sim.sleep(0.25)

    sim.spawn(worker(sim))
    sim.run()
    # Only the thread's own ``done`` event, whatever n is.
    assert len(created) == 1
    assert sim.now == 0.25 * n


def test_wait_for_graph_lists_a_sleeping_thread():
    sim = Simulator()

    def worker(sim):
        yield sim.sleep(10)

    t = sim.spawn(worker(sim), name="napper")
    sim.run(until=1.0)
    assert t.blocked_on is not None and t.blocked_on.name == "sleep"
    assert sim.wait_for_graph() == [
        {"thread": "napper", "tid": t.tid, "daemon": False, "event": "sleep", "owner": None}
    ]
    sim.run()
    assert sim.wait_for_graph() == []


# ---------------------------------------------------------------------------
# Source guard: cost sleeps use the event-free form
# ---------------------------------------------------------------------------


def _direct_timeout_yields(root):
    hits = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, ast.Yield)
                and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Attribute)
                and node.value.func.attr == "timeout"
            ):
                hits.append(f"{path.relative_to(root.parent)}:{node.lineno}")
    return hits


def test_guard_detects_a_direct_timeout_yield(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "mod.py").write_text(
        "def f(sim):\n"
        "    yield sim.timeout(1)\n"
        "    yield sim.sleep(1)\n"
        "    yield sim.any_of([sim.timeout(1)])\n"
    )
    assert _direct_timeout_yields(pkg) == ["pkg/mod.py:2"]


def test_no_direct_timeout_yields_in_the_package():
    """``yield x.timeout(d)`` allocates an event to wake one thread; write
    ``yield x.sleep(d)``. Keep ``timeout`` for events composed with others."""
    assert _direct_timeout_yields(SRC) == []
