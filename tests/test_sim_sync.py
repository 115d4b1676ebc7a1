"""Unit tests for synchronization primitives: Mutex and Semaphore."""

import pytest

from repro.sim import Mutex, Semaphore, Simulator


def test_mutex_mutual_exclusion():
    sim = Simulator()
    mutex = Mutex(sim)
    inside = []
    max_inside = []

    def worker(sim, tag):
        yield mutex.acquire(owner=tag)
        inside.append(tag)
        max_inside.append(len(inside))
        yield sim.timeout(1)
        inside.remove(tag)
        mutex.release()

    for tag in range(5):
        sim.spawn(worker(sim, tag))
    sim.run()
    assert max(max_inside) == 1
    assert sim.now == 5  # fully serialized


def test_mutex_fifo_ordering():
    sim = Simulator()
    mutex = Mutex(sim)
    order = []

    def worker(sim, tag, arrive):
        yield sim.timeout(arrive)
        yield mutex.acquire(owner=tag)
        order.append(tag)
        yield sim.timeout(10)
        mutex.release()

    for tag, arrive in [("a", 0), ("b", 1), ("c", 2), ("d", 3)]:
        sim.spawn(worker(sim, tag, arrive))
    sim.run()
    assert order == ["a", "b", "c", "d"]


def test_mutex_try_acquire():
    sim = Simulator()
    mutex = Mutex(sim)
    assert mutex.try_acquire("me")
    assert not mutex.try_acquire("you")
    assert mutex.owner == "me"
    mutex.release()
    assert mutex.try_acquire("you")


def test_mutex_release_unlocked_raises():
    sim = Simulator()
    mutex = Mutex(sim)
    with pytest.raises(RuntimeError):
        mutex.release()


def test_mutex_owner_tracking_across_handoff():
    sim = Simulator()
    mutex = Mutex(sim)
    owners = []

    def holder(sim):
        yield mutex.acquire(owner="first")
        owners.append(mutex.owner)
        yield sim.timeout(1)
        mutex.release()

    def waiter(sim):
        yield mutex.acquire(owner="second")
        owners.append(mutex.owner)
        mutex.release()

    sim.spawn(holder(sim))
    sim.spawn(waiter(sim))
    sim.run()
    assert owners == ["first", "second"]


def test_semaphore_counts():
    sim = Simulator()
    sem = Semaphore(sim, value=2)
    active = []
    peak = []

    def worker(sim, tag):
        yield sem.wait()
        active.append(tag)
        peak.append(len(active))
        yield sim.timeout(1)
        active.remove(tag)
        sem.post()

    for tag in range(6):
        sim.spawn(worker(sim, tag))
    sim.run()
    assert max(peak) == 2
    assert sim.now == 3


def test_semaphore_post_before_wait():
    sim = Simulator()
    sem = Semaphore(sim, value=0)
    sem.post(3)

    def worker(sim):
        yield sem.wait()
        yield sem.wait()
        yield sem.wait()
        return "got-all"

    t = sim.spawn(worker(sim))
    sim.run()
    assert t.done.value == "got-all"


def test_semaphore_negative_initial_value():
    sim = Simulator()
    with pytest.raises(ValueError):
        Semaphore(sim, value=-1)

