"""The discrete-event simulation kernel.

The kernel runs *simulated threads* — Python generators that ``yield``
:class:`~repro.sim.events.Event` objects to block, or the delay returned by
:meth:`Simulator.sleep` to pass simulated time. Scheduling is strictly
deterministic: ties in simulated time are broken by a per-simulator sequence
counter, so a given seed and workload always produce the same interleaving.

Threads compose with ``yield from``, which is how the higher layers (OS,
SCIF, COI, Snapify) build blocking "system calls" out of one another.

Hot-path notes
--------------
Every simulated action in the whole stack funnels through ``Thread._step``
and the run loops below, so this module trades a little beauty for speed:

* ``Thread`` uses ``__slots__`` and parks itself directly in an event's
  callback list (see :class:`~repro.sim.events._ThreadWaiter`) — no resume
  closure is allocated per wait.
* Yielding an already-triggered event skips waiter registration entirely
  and re-schedules the thread straight onto the heap.
* ``yield sim.sleep(d)`` allocates no event. ``sleep`` only validates the
  delay and returns it as a float; ``_step`` pushes
  ``(now + d, k, _wake, (thread, k))`` and ``_wake`` pushes the usual
  ``(now, k', thread._bstep, (None, None))`` resume. These are the two
  entries, with the same sequence draws, that ``yield sim.timeout(d)``
  makes (the timer's ``succeed``, then the waiter's resume), so the two
  forms order identically. The key ``k`` is the sleep's token: a thread
  interrupted or killed mid-sleep ignores the stale wake, even if it has
  gone back to sleep since.
* ``_ready``/``spawn`` push heap entries inline instead of going through
  :meth:`Simulator.schedule`, and the run loops bind ``heappop`` locally.
* The bound ``_step`` method is created once per thread (``_bstep``), not
  once per resume.

None of this may change wakeup ordering: heap entries remain
``(time, seq, fn, args)`` with ``seq`` drawn in the same places as the
straightforward implementation, so trace orderings are byte-identical.

Thread IDs are drawn from a **per-simulator** counter (``Simulator._tids``),
so the interleaving — and any trace output derived from thread names — of a
given workload does not depend on how many simulators ran earlier in the
process.

Schedule exploration
--------------------
``Simulator(schedule_seed=N)`` turns the tie-break counter into a seeded
*perturbed* key stream: entries that collide at the same simulated time are
popped in a pseudo-random (but fully deterministic and replayable) order
instead of insertion order. Every perturbed schedule is still a legal
execution — time ordering is untouched; only the order of semantically
concurrent wakeups changes — which is what the :mod:`repro.check` fuzzer
sweeps to hunt protocol races. ``schedule_seed=None`` (the default) keeps
the plain counter and is byte-identical to the unseeded kernel, as the
golden-trace test proves.
"""

from __future__ import annotations

import itertools
import random
from heapq import heappop, heappush
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional

from .errors import DeadlockError, Interrupted, SimTimeLimit, ThreadKilled
from .events import PENDING, SUCCEEDED, AllOf, AnyOf, Event, _ThreadWaiter
from .trace import Tracer

SimGen = Generator[Event, Any, Any]

#: What a sleeping thread is blocked on. It never triggers and never gets a
#: waiter; it only names the wait ``"sleep"`` in ``blocked_on``,
#: ``wait_for_graph()`` and deadlock dumps.
_SLEEP = Event(None, name="sleep")  # type: ignore[arg-type]


def _wake(thread: "Thread", key: Any) -> None:
    """Timer entry of ``sim.sleep``: resume ``thread`` if still in sleep ``key``."""
    if thread._waiting_on is _SLEEP and thread._sleep_key is key:
        thread._waiting_on = None
        sim = thread.sim
        heappush(sim._heap, (sim.now, next(sim._seq), thread._bstep, (None, None)))


def _perturbed_seq(seed: int):
    """Seeded replacement for the tie-break counter.

    Yields ``(random 32-bit key, n)`` tuples: the random key shuffles the pop
    order of same-timestamp heap entries, while the trailing counter keeps
    every key unique so the heap never falls through to comparing callables.
    Keys are drawn in execution order from a private PRNG, so the same seed
    always produces the same perturbation — replayable by construction.
    """
    rng = random.Random(seed)
    bits = rng.getrandbits
    for n in itertools.count():
        yield (bits(32), n)


class Thread(_ThreadWaiter):
    """A simulated thread of execution.

    Wraps a generator. The thread's completion is itself observable through
    :attr:`done`, an event that succeeds with the generator's return value or
    fails with its uncaught exception — making ``join`` a plain event wait.
    """

    __slots__ = (
        "sim",
        "gen",
        "tid",
        "name",
        "done",
        "daemon",
        "_waiting_on",
        "_sleep_key",
        "_bstep",
    )

    def __init__(self, sim: "Simulator", gen: SimGen, name: str = ""):
        self.sim = sim
        self.gen = gen
        self.tid = next(sim._tids)
        self.name = name or f"thread-{self.tid}"
        self.done = Event(sim, name=f"done:{self.name}")
        self._waiting_on: Optional[Event] = None
        self._sleep_key: Any = None  # heap key of the current sleep's wake
        self.daemon = False  # daemon threads don't count for quiescence
        self._bstep = self._step  # bind once; scheduled on every resume

    # -- state -------------------------------------------------------------
    @property
    def alive(self) -> bool:
        return self.done._state is PENDING

    @property
    def blocked_on(self) -> Optional[Event]:
        return self._waiting_on

    # -- kernel stepping ----------------------------------------------------
    def _step(self, send_value: Any = None, throw_exc: Optional[BaseException] = None) -> None:
        if self.done._state is not PENDING:
            # Killed/finished while a resumption was already scheduled.
            return
        self._waiting_on = None
        try:
            if throw_exc is not None:
                target = self.gen.throw(throw_exc)
            else:
                target = self.gen.send(send_value)
        except StopIteration as stop:
            self.done.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - thread death is reported
            self.sim.trace.emit("thread.error", thread=self.name, error=repr(exc))
            self.sim._dead_threads.append((self, exc))
            self.done.fail(exc)
            if self.sim.strict:
                raise
            return
        if target.__class__ is float:
            # sim.sleep(d): one timer entry, no event (see _wake).
            sim = self.sim
            key = next(sim._seq)
            self._waiting_on = _SLEEP
            self._sleep_key = key
            heappush(sim._heap, (sim.now + target, key, _wake, (self, key)))
            return
        if isinstance(target, Event):
            state = target._state
            if state is PENDING:
                # Park directly in the event's waiter list: no closure.
                self._waiting_on = target
                callbacks = target._callbacks
                if callbacks is None:
                    target._callbacks = [self]
                else:
                    callbacks.append(self)
            else:
                # Already-triggered fast path: straight back onto the heap.
                sim = self.sim
                if state is SUCCEEDED:
                    args = (target._value, None)
                else:
                    args = (None, target._exc)
                heappush(sim._heap, (sim.now, next(sim._seq), self._bstep, args))
            return
        exc2 = TypeError(
            f"thread {self.name!r} yielded {target!r}; threads must yield Event objects"
            " or sim.sleep() delays"
        )
        self.sim._dead_threads.append((self, exc2))
        self.done.fail(exc2)
        if self.sim.strict:
            raise exc2

    # -- control ------------------------------------------------------------
    def interrupt(self, cause: object = None) -> None:
        """Interrupt the thread if it is blocked.

        The blocked ``yield`` raises :class:`Interrupted` inside the thread.
        Interrupting a thread that is not blocked (running or finished) is a
        no-op, matching the fire-and-forget nature of signal delivery.
        """
        if self.done._state is not PENDING:
            return
        ev = self._waiting_on
        if ev is None:
            return
        self._waiting_on = None
        ev.remove_callback(self)
        self.sim._ready(self, None, Interrupted(cause))

    def kill(self) -> None:
        """Destroy the thread without running it further.

        Cleanup clauses (``finally``) in the generator run via ``close()``;
        the done event fails with :class:`ThreadKilled`.
        """
        if self.done._state is not PENDING:
            return
        ev = self._waiting_on
        if ev is not None:
            ev.remove_callback(self)
            self._waiting_on = None
        try:
            self.gen.close()
        except BaseException:  # pragma: no cover - generator misbehaviour
            pass
        if self.done._state is PENDING:
            self.done.fail(ThreadKilled(self.name))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if not self.alive else ("blocked" if self._waiting_on else "ready")
        return f"<Thread {self.name} {state}>"


class Simulator:
    """Deterministic discrete-event simulator.

    Typical use::

        sim = Simulator()

        def worker(sim):
            yield sim.sleep(1.5)
            return "done"

        t = sim.spawn(worker(sim), name="worker")
        sim.run()
        assert sim.now == 1.5 and t.done.value == "done"
    """

    def __init__(
        self,
        *,
        strict: bool = False,
        trace: bool = False,
        schedule_seed: Optional[int] = None,
    ):
        self.now: float = 0.0
        self._heap: List = []
        self.schedule_seed = schedule_seed
        if schedule_seed is None:
            self._seq = itertools.count()
        else:
            self._seq = _perturbed_seq(schedule_seed)
        self._tids = itertools.count(1)
        self.strict = strict
        self.trace = Tracer(self, enabled=trace)
        self.threads: List[Thread] = []
        self._dead_threads: List = []

    # -- low-level scheduling ------------------------------------------------
    def schedule(self, delay: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        heappush(self._heap, (self.now + delay, next(self._seq), fn, args))

    def _ready(self, thread: Thread, value: Any, exc: Optional[BaseException]) -> None:
        heappush(self._heap, (self.now, next(self._seq), thread._bstep, (value, exc)))

    # -- thread / event factories ---------------------------------------------
    def spawn(self, gen: SimGen, name: str = "", daemon: bool = False) -> Thread:
        """Create a thread from a generator and schedule its first step."""
        if not hasattr(gen, "send"):
            raise TypeError("spawn() needs a generator (call the generator function)")
        t = Thread(self, gen, name=name)
        t.daemon = daemon
        self.threads.append(t)
        heappush(self._heap, (self.now, next(self._seq), t._bstep, (None, None)))
        return t

    def event(self, name: str = "") -> Event:
        return Event(self, name=name)

    def sleep(self, delay: float) -> float:
        """Pass ``delay`` simulated seconds: ``yield sim.sleep(delay)``.

        Returns the delay as a float for the yielding thread's ``_step``,
        which blocks the thread on a bare heap entry instead of an event.
        Ordering is exactly that of ``yield sim.timeout(delay)``; use
        :meth:`timeout` only where the delay must compose with other
        events (``any_of``) or carry a value.
        """
        if delay < 0:
            raise ValueError(f"negative sleep: {delay}")
        return float(delay)

    def timeout(self, delay: float, value: Any = None) -> Event:
        """Event that succeeds with ``value`` after ``delay`` simulated seconds."""
        ev = Event(self, name="timeout")
        self.schedule(delay, ev.succeed, value)
        return ev

    def at(self, when: float, value: Any = None) -> Event:
        """Event that succeeds at the absolute simulated time ``when``.

        ``sleep(when - now)`` need not land on ``when`` bit for bit (the
        subtraction and re-addition round), so a thread rejoining a time
        grid it computed itself waits on this instead. Same-time entries
        order by sequence number, exactly as :meth:`schedule` orders them.
        """
        if when < self.now:
            raise ValueError(f"at({when!r}) is in the past (now={self.now!r})")
        ev = Event(self, name="at")
        heappush(self._heap, (when, next(self._seq), ev.succeed, (value,)))
        return ev

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, list(events))

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, list(events))

    # -- run loop ------------------------------------------------------------
    def run(self, until: Optional[float] = None, *, check_deadlock: bool = True) -> float:
        """Run until quiescence (or simulated time ``until``).

        Returns the final simulated time. With ``check_deadlock`` (default),
        raises :class:`DeadlockError` if the heap drains while non-daemon
        threads are still blocked — the classic symptom of a protocol bug
        such as an un-released lock or an un-drained channel.
        """
        heap = self._heap
        pop = heappop
        if until is None:
            while heap:
                t, _, fn, args = pop(heap)
                self.now = t
                fn(*args)
        else:
            while heap:
                t = heap[0][0]
                if t > until:
                    self.now = until
                    return until
                # Batch-dispatch every entry at this timestamp: the horizon
                # check above need not be repeated for same-time entries.
                self.now = t
                while heap and heap[0][0] == t:
                    entry = pop(heap)
                    entry[2](*entry[3])
        if check_deadlock:
            stuck = [
                th
                for th in self.threads
                if th.alive and not th.daemon and th.blocked_on is not None
            ]
            if stuck:
                names = ", ".join(
                    f"{th.name} on {th.blocked_on and th.blocked_on.name!r}" for th in stuck[:12]
                )
                raise DeadlockError(
                    f"{len(stuck)} thread(s) blocked at t={self.now:g}: {names}",
                    waitfor=self.wait_for_graph(),
                )
        return self.now

    def run_until(self, event: Event, *, limit: float = 1e12) -> Any:
        """Run until ``event`` triggers; return its value (or raise its error)."""
        heap = self._heap
        pop = heappop
        while event._state is PENDING:
            if not heap:
                raise DeadlockError(
                    f"event {event.name!r} can never trigger (heap empty)",
                    waitfor=self.wait_for_graph(),
                )
            if heap[0][0] > limit:
                # Peek, not pop: the entry must survive for a later run().
                raise SimTimeLimit(f"exceeded t={limit:g} waiting for {event.name!r}")
            t, _, fn, args = pop(heap)
            self.now = t
            fn(*args)
        return event.value

    # -- diagnostics -----------------------------------------------------------
    def failed_threads(self) -> List:
        """(thread, exception) pairs for threads that died with an error."""
        return list(self._dead_threads)

    def wait_for_graph(self) -> List[Dict[str, Any]]:
        """Edges for every currently-blocked thread: who waits on what.

        Each edge is ``{"thread", "tid", "daemon", "event", "owner"}``; the
        owner is resolved when the blocking event exposes ``owner_info``
        (mutex acquires do — see :class:`repro.sim.sync._AcquireEvent`),
        else ``None``. Edges are sorted by tid, so the dump is stable across
        perturbed schedules that block the same thread set.
        """
        edges: List[Dict[str, Any]] = []
        for th in self.threads:
            if not th.alive:
                continue
            ev = th._waiting_on
            if ev is None:
                continue
            edges.append(
                {
                    "thread": th.name,
                    "tid": th.tid,
                    "daemon": th.daemon,
                    "event": ev.name,
                    "owner": getattr(ev, "owner_info", None),
                }
            )
        edges.sort(key=lambda e: e["tid"])
        return edges
