"""Events: the single blocking primitive of the simulation kernel.

A simulated thread blocks by ``yield``-ing an :class:`Event`. The kernel
resumes the thread when the event *triggers* — either successfully (the
thread's ``yield`` expression evaluates to the event's value) or with a
failure (the stored exception is re-raised at the ``yield`` site).

All higher-level primitives (locks, channels, pipes, RDMA completions,
process exits) bottom out in events, which keeps the kernel's scheduling
rules in one place and makes the whole stack deterministic. The one
exception is a plain cost sleep: ``yield sim.sleep(d)`` blocks the thread
on a bare heap entry and allocates no event at all (see
:mod:`repro.sim.kernel`); ``sim.timeout(d)`` remains the event form for
code that must compose a delay with other events.

Hot-path notes
--------------
Events are the single most-allocated object in a simulation, so this module
is tuned accordingly:

* ``_callbacks`` is lazily allocated (``None`` until the first waiter), so
  an event that triggers before anyone waits — the common case for channel
  sends — never allocates a list.
* Simulated threads register themselves *directly* in the callback list
  (they subclass the :class:`_ThreadWaiter` marker) instead of allocating a
  resume closure per wait; :meth:`Event._fire` hands them straight back to
  the scheduler.
* State comparisons use ``is`` against the interned module-level constants.
* ``Simulator.timeout`` builds a plain event with the static name
  ``"timeout"`` (no per-call f-string) on a single heap entry; cost sleeps
  skip events entirely through ``Simulator.sleep``.

Ordering is load-bearing: waiters and callbacks live in one list and fire
in registration order, so optimizations here must never reorder wakeups —
trace orderings are part of the kernel's contract (seed + workload → same
interleaving).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .kernel import Simulator

PENDING = "pending"
SUCCEEDED = "succeeded"
FAILED = "failed"


class _ThreadWaiter:
    """Marker base for objects that wait on events without a closure.

    :class:`~repro.sim.kernel.Thread` subclasses this; :meth:`Event._fire`
    resumes such waiters through the scheduler directly instead of calling
    them. The marker lives here (not in ``kernel``) to avoid an import cycle.
    """

    __slots__ = ()


class Event:
    """A one-shot occurrence that threads can wait on.

    Events trigger exactly once. Waiters registered after the trigger are
    resumed immediately (at the current simulation time), so there is no
    lost-wakeup hazard.
    """

    __slots__ = ("sim", "name", "_state", "_value", "_exc", "_callbacks")

    #: Wait-for-graph hook: subclasses that gate a shared resource (e.g. the
    #: mutex-acquire event in :mod:`repro.sim.sync`) override this with a
    #: property describing the current holder. ``Simulator.wait_for_graph``
    #: reads it to label deadlock edges; plain events have no owner.
    owner_info: Optional[str] = None

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self._state = PENDING
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        # Lazily allocated: None means "no waiter has ever registered".
        self._callbacks: Optional[List[Any]] = None

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._state is not PENDING

    @property
    def ok(self) -> bool:
        return self._state is SUCCEEDED

    @property
    def value(self) -> Any:
        if self._state is PENDING:
            raise RuntimeError(f"event {self.name!r} has not triggered yet")
        if self._state is FAILED:
            raise self._exc  # type: ignore[misc]
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exc

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, waking all waiters."""
        if self._state is not PENDING:
            raise RuntimeError(f"event {self.name!r} already triggered")
        self._state = SUCCEEDED
        self._value = value
        if self._callbacks is not None:
            self._fire()
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception, waking all waiters."""
        if self._state is not PENDING:
            raise RuntimeError(f"event {self.name!r} already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._state = FAILED
        self._exc = exc
        if self._callbacks is not None:
            self._fire()
        return self

    def _fire(self) -> None:
        callbacks, self._callbacks = self._callbacks, None
        if not callbacks:
            return
        if self._state is SUCCEEDED:
            value, exc = self._value, None
        else:
            value, exc = None, self._exc
        sim = self.sim
        for cb in callbacks:
            if isinstance(cb, _ThreadWaiter):
                # Slot-based resume: the thread parked itself here; skip it
                # if it was interrupted/killed and re-targeted meanwhile.
                if cb._waiting_on is self:
                    cb._waiting_on = None
                    sim._ready(cb, value, exc)
            else:
                cb(self)

    # -- waiter registration (kernel API) ----------------------------------
    def add_callback(self, cb: Callable[["Event"], None]) -> None:
        """Register ``cb``; invoked immediately if already triggered."""
        if self._state is not PENDING:
            cb(self)
        elif self._callbacks is None:
            self._callbacks = [cb]
        else:
            self._callbacks.append(cb)

    def remove_callback(self, cb: Callable[["Event"], None]) -> None:
        if self._callbacks is not None:
            try:
                self._callbacks.remove(cb)
            except ValueError:
                pass

    @property
    def abandoned(self) -> bool:
        """Pending with no listeners: its only waiter was interrupted/killed.

        Handoff primitives (mutexes, semaphores, channels) must skip
        abandoned waiters or ownership/messages leak into the void.
        """
        return self._state is PENDING and not self._callbacks

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Event {self.name!r} {self._state}>"


class AnyOf(Event):
    """Triggers when the first of ``events`` triggers.

    The value is the ``(index, event)`` pair of the first trigger. A failure
    of the first-triggering event propagates.
    """

    __slots__ = ("events",)

    def __init__(self, sim: "Simulator", events: List[Event]):
        super().__init__(sim, name=f"anyof[{len(events)}]")
        self.events = list(events)
        if not events:
            raise ValueError("AnyOf requires at least one event")
        for i, ev in enumerate(self.events):
            ev.add_callback(self._make_cb(i))

    def _make_cb(self, index: int) -> Callable[[Event], None]:
        def cb(ev: Event) -> None:
            if self.triggered:
                return
            if ev.ok:
                self.succeed((index, ev))
            else:
                self.fail(ev.exception)  # type: ignore[arg-type]

        return cb


class AllOf(Event):
    """Triggers when every one of ``events`` has triggered successfully.

    The value is the list of all event values, in order. The first failure
    fails the composite immediately.
    """

    __slots__ = ("events", "_remaining")

    def __init__(self, sim: "Simulator", events: List[Event]):
        super().__init__(sim, name=f"allof[{len(events)}]")
        self.events = list(events)
        self._remaining = len(self.events)
        if self._remaining == 0:
            self.succeed([])
            return
        for ev in self.events:
            ev.add_callback(self._on_child)

    def _on_child(self, ev: Event) -> None:
        if self.triggered:
            return
        if not ev.ok:
            self.fail(ev.exception)  # type: ignore[arg-type]
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([e._value for e in self.events])
