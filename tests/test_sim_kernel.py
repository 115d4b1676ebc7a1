"""Unit tests for the DES kernel: events, threads, scheduling, determinism."""

import pytest

from repro.sim import (
    DeadlockError,
    Interrupted,
    SimTimeLimit,
    Simulator,
    ThreadKilled,
)


def test_timeout_advances_clock():
    sim = Simulator()

    def worker(sim):
        yield sim.timeout(2.5)
        return sim.now

    t = sim.spawn(worker(sim))
    sim.run()
    assert sim.now == 2.5
    assert t.done.value == 2.5


def test_zero_delay_runs_in_order():
    sim = Simulator()
    order = []

    def worker(sim, tag):
        yield sim.timeout(0)
        order.append(tag)

    for tag in ("a", "b", "c"):
        sim.spawn(worker(sim, tag))
    sim.run()
    assert order == ["a", "b", "c"]


def test_event_value_passing():
    sim = Simulator()
    ev = sim.event("data")
    got = []

    def consumer(sim):
        value = yield ev
        got.append(value)

    def producer(sim):
        yield sim.timeout(1)
        ev.succeed(42)

    sim.spawn(consumer(sim))
    sim.spawn(producer(sim))
    sim.run()
    assert got == [42]


def test_event_failure_propagates_to_waiter():
    sim = Simulator()
    ev = sim.event()

    def consumer(sim):
        with pytest.raises(ValueError):
            yield ev
        return "survived"

    def producer(sim):
        yield sim.timeout(1)
        ev.fail(ValueError("boom"))

    t = sim.spawn(consumer(sim))
    sim.spawn(producer(sim))
    sim.run()
    assert t.done.value == "survived"


def test_wait_on_already_triggered_event():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("early")

    def consumer(sim):
        value = yield ev
        return value

    t = sim.spawn(consumer(sim))
    sim.run()
    assert t.done.value == "early"


def test_event_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)
    with pytest.raises(RuntimeError):
        ev.fail(ValueError())


def test_thread_join_via_done_event():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(3)
        return "child-result"

    def parent(sim):
        t = sim.spawn(child(sim), name="child")
        result = yield t.done
        return result

    p = sim.spawn(parent(sim), name="parent")
    sim.run()
    assert p.done.value == "child-result"
    assert sim.now == 3


def test_yield_from_composition():
    sim = Simulator()

    def inner(sim):
        yield sim.timeout(1)
        return 10

    def outer(sim):
        a = yield from inner(sim)
        b = yield from inner(sim)
        return a + b

    t = sim.spawn(outer(sim))
    sim.run()
    assert t.done.value == 20
    assert sim.now == 2


def test_uncaught_thread_exception_is_recorded():
    sim = Simulator()

    def bad(sim):
        yield sim.timeout(1)
        raise RuntimeError("oops")

    t = sim.spawn(bad(sim))
    sim.run()
    assert not t.done.ok
    failures = sim.failed_threads()
    assert len(failures) == 1
    assert isinstance(failures[0][1], RuntimeError)


def test_strict_mode_raises_on_thread_error():
    sim = Simulator(strict=True)

    def bad(sim):
        yield sim.timeout(1)
        raise RuntimeError("oops")

    sim.spawn(bad(sim))
    with pytest.raises(RuntimeError):
        sim.run()


def test_yielding_non_event_is_an_error():
    sim = Simulator()

    def bad(sim):
        yield 42

    t = sim.spawn(bad(sim))
    sim.run()
    assert not t.done.ok
    assert isinstance(t.done.exception, TypeError)


def test_interrupt_blocked_thread():
    sim = Simulator()
    ev = sim.event("never")
    caught = []

    def worker(sim):
        try:
            yield ev
        except Interrupted as exc:
            caught.append(exc.cause)
        yield sim.timeout(1)
        return "recovered"

    t = sim.spawn(worker(sim))

    def interrupter(sim):
        yield sim.timeout(5)
        t.interrupt("signal-9")

    sim.spawn(interrupter(sim))
    sim.run()
    assert caught == ["signal-9"]
    assert t.done.value == "recovered"
    assert sim.now == 6


def test_interrupt_does_not_fire_stale_event_later():
    sim = Simulator()
    ev = sim.event()
    hits = []

    def worker(sim):
        try:
            yield ev
            hits.append("normal")
        except Interrupted:
            hits.append("interrupted")
        yield sim.timeout(10)

    t = sim.spawn(worker(sim))

    def driver(sim):
        yield sim.timeout(1)
        t.interrupt()
        yield sim.timeout(1)
        ev.succeed("late")  # must NOT resume the worker a second time

    sim.spawn(driver(sim))
    sim.run()
    assert hits == ["interrupted"]


def test_kill_thread_runs_finally():
    sim = Simulator()
    cleaned = []

    def worker(sim):
        try:
            yield sim.event("forever")
        finally:
            cleaned.append(True)

    t = sim.spawn(worker(sim))

    def killer(sim):
        yield sim.timeout(1)
        t.kill()

    sim.spawn(killer(sim))
    sim.run(check_deadlock=False)
    assert cleaned == [True]
    assert isinstance(t.done.exception, ThreadKilled)


def test_deadlock_detection():
    sim = Simulator()

    def stuck(sim):
        yield sim.event("never-fires")

    sim.spawn(stuck(sim), name="stuck-thread")
    with pytest.raises(DeadlockError):
        sim.run()


def test_daemon_threads_do_not_trip_deadlock_check():
    sim = Simulator()

    def daemon(sim):
        yield sim.event("never")

    sim.spawn(daemon(sim), daemon=True)
    sim.run()  # no DeadlockError


def test_run_until_limit():
    sim = Simulator()

    def slow(sim):
        yield sim.timeout(100)

    sim.spawn(slow(sim))
    sim.run(until=10)
    assert sim.now == 10

    sim.run()
    assert sim.now == 100


def test_run_until_event():
    sim = Simulator()
    ev = sim.event()

    def worker(sim):
        yield sim.timeout(7)
        ev.succeed("ready")

    sim.spawn(worker(sim))
    assert sim.run_until(ev) == "ready"
    assert sim.now == 7


def test_run_until_event_that_cannot_fire():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(DeadlockError):
        sim.run_until(ev)


def test_run_until_time_limit_guard():
    sim = Simulator()
    ev = sim.event()

    def ticker(sim):
        while True:
            yield sim.timeout(10)

    sim.spawn(ticker(sim), daemon=True)
    with pytest.raises(SimTimeLimit):
        sim.run_until(ev, limit=100)


def test_run_until_time_limit_keeps_the_entry_past_the_limit():
    """Regression: the first entry past ``limit`` was popped and lost, so
    a later ``run()`` never fired it."""
    sim = Simulator()
    fired = []
    sim.schedule(200.0, fired.append, "late")
    with pytest.raises(SimTimeLimit):
        sim.run_until(sim.event("never"), limit=100)
    assert sim.now == 0.0
    sim.run()
    assert fired == ["late"]
    assert sim.now == 200.0


def test_any_of_returns_first():
    sim = Simulator()

    def worker(sim):
        t1 = sim.timeout(5, "slow")
        t2 = sim.timeout(2, "fast")
        idx, ev = yield sim.any_of([t1, t2])
        return idx, ev.value

    t = sim.spawn(worker(sim))
    sim.run()
    assert t.done.value == (1, "fast")


def test_all_of_waits_for_everything():
    sim = Simulator()

    def worker(sim):
        evs = [sim.timeout(d, d) for d in (3, 1, 2)]
        values = yield sim.all_of(evs)
        return values

    t = sim.spawn(worker(sim))
    sim.run()
    assert t.done.value == [3, 1, 2]
    assert sim.now == 3


def test_all_of_empty_succeeds_immediately():
    sim = Simulator()

    def worker(sim):
        result = yield sim.all_of([])
        return result

    t = sim.spawn(worker(sim))
    sim.run()
    assert t.done.value == []


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1)


def test_at_fires_at_exactly_when():
    """``at`` lands on its absolute time bit for bit, where a timeout of
    ``when - now`` rounds past it."""
    sim = Simulator()
    when = 1.1 + 2.2  # 3.3000000000000003

    def worker(sim):
        yield sim.timeout(0.7)
        assert repr(sim.now + (when - sim.now)) != repr(when)
        value = yield sim.at(when, "tick")
        return value, sim.now

    t = sim.spawn(worker(sim))
    sim.run()
    value, fired = t.done.value
    assert value == "tick"
    assert repr(fired) == repr(when)


def test_at_orders_same_time_entries_by_sequence():
    sim = Simulator()
    order = []
    sim.schedule(2.0, order.append, "before")
    sim.at(2.0).add_callback(lambda ev: order.append("at"))
    sim.schedule(2.0, order.append, "after")
    sim.timeout(2.0).add_callback(lambda ev: order.append("timeout"))
    sim.run()
    assert order == ["before", "at", "after", "timeout"]


def test_at_rejects_the_past():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError, match="in the past"):
        sim.at(0.5)
    sim.at(sim.now)  # the present is fine


def test_determinism_same_schedule_twice():
    def build_and_run():
        sim = Simulator()
        log = []

        def worker(sim, tag, delay):
            for i in range(3):
                yield sim.timeout(delay)
                log.append((sim.now, tag, i))

        sim.spawn(worker(sim, "x", 1.0))
        sim.spawn(worker(sim, "y", 1.0))
        sim.spawn(worker(sim, "z", 0.5))
        sim.run()
        return log

    assert build_and_run() == build_and_run()
