"""Synchronization primitives for simulated threads.

All primitives hand off deterministically in FIFO order (no barging): when a
mutex is released, ownership transfers directly to the oldest waiter. This
mirrors the fairness assumptions Snapify's drain protocol makes about COI's
internal locks, and it keeps simulated schedules reproducible.

Usage pattern (inside a simulated thread)::

    yield mutex.acquire()
    try:
        ...critical section...
    finally:
        mutex.release()

Hot-path notes
--------------
A large fleet builds several locks per card and per offload process, and
most of them are never contended. So every primitive has ``__slots__`` and
its waiter queue is ``None`` until the first waiter parks: an uncontended
lock or semaphore holds no container. Once created, the queue stays a
deque, because a shared PCIe link mutex can queue many waiters at once.
Release and post read ``None`` as an empty queue.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Optional

from .events import PENDING, Event

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import Simulator


class _AcquireEvent(Event):
    """Mutex-acquire event that knows which lock it is queued on.

    The extra slot lets :meth:`Simulator.wait_for_graph` resolve the current
    holder of the contended lock without the kernel importing this module
    (resolution is duck-typed on ``owner_info``) and without burdening the
    plain :class:`Event` hot path.
    """

    __slots__ = ("mutex",)

    def __init__(self, mutex: "Mutex"):
        super().__init__(mutex.sim, name=mutex._acquire_name)
        self.mutex = mutex

    @property
    def owner_info(self) -> Optional[str]:
        """Describe the current lock holder, or None if unowned."""
        m = self.mutex
        if not m.locked:
            return None
        owner = m.owner
        if owner is None:
            return f"mutex {m.name!r} (anonymous holder)"
        name = getattr(owner, "name", None)
        return f"mutex {m.name!r} holder {name or owner!r}"


class Mutex:
    """A non-reentrant FIFO mutual-exclusion lock.

    Acquire/release sit on the offload hot path (Snapify's drain locks), so
    the event name is interpolated once per mutex and the cancelled-waiter
    scan reads event state directly instead of going through properties.
    """

    __slots__ = ("sim", "name", "locked", "owner", "_waiters", "_acquire_name")

    def __init__(self, sim: "Simulator", name: str = "mutex"):
        self.sim = sim
        self.name = name
        self.locked = False
        self.owner: Optional[object] = None
        self._waiters: Optional[Deque[tuple[Event, Optional[object]]]] = None
        self._acquire_name = f"acquire:{name}"

    def acquire(self, owner: Optional[object] = None) -> Event:
        """Return an event that succeeds once the caller holds the lock."""
        ev = _AcquireEvent(self)
        if not self.locked:
            self.locked = True
            self.owner = owner
            ev.succeed(self)
        elif self._waiters is None:
            self._waiters = deque([(ev, owner)])
        else:
            self._waiters.append((ev, owner))
        return ev

    def try_acquire(self, owner: Optional[object] = None) -> bool:
        """Non-blocking acquire; True on success."""
        if self.locked:
            return False
        self.locked = True
        self.owner = owner
        return True

    def release(self) -> None:
        if not self.locked:
            raise RuntimeError(f"release of unlocked mutex {self.name!r}")
        # Drop cancelled waiters: triggered elsewhere, or abandoned by an
        # interrupted/killed thread.
        while self._waiters:
            ev, owner = self._waiters.popleft()
            if ev._state is not PENDING or not ev._callbacks:
                continue
            self.owner = owner
            ev.succeed(self)
            return
        self.locked = False
        self.owner = None

    @property
    def queue_length(self) -> int:
        return sum(1 for ev, _ in self._waiters or () if not ev.triggered)


class Semaphore:
    """Counting semaphore with FIFO wakeups."""

    __slots__ = ("sim", "name", "value", "_waiters", "_wait_name")

    def __init__(self, sim: "Simulator", value: int = 0, name: str = "sem"):
        if value < 0:
            raise ValueError("semaphore initial value must be >= 0")
        self.sim = sim
        self.name = name
        self.value = value
        self._waiters: Optional[Deque[Event]] = None
        self._wait_name = f"sem.wait:{name}"

    def wait(self) -> Event:
        """P(): event succeeds once a unit has been consumed."""
        ev = Event(self.sim, name=self._wait_name)
        if self.value > 0:
            self.value -= 1
            ev.succeed(self)
        elif self._waiters is None:
            self._waiters = deque([ev])
        else:
            self._waiters.append(ev)
        return ev

    def post(self, n: int = 1) -> None:
        """V(): release ``n`` units, waking waiters FIFO."""
        for _ in range(n):
            woke = False
            while self._waiters:
                ev = self._waiters.popleft()
                if ev._state is not PENDING or not ev._callbacks:
                    continue
                ev.succeed(self)
                woke = True
                break
            if not woke:
                self.value += 1

