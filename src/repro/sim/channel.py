"""FIFO message channels.

Channels are the in-simulation transport that UNIX pipes, UNIX sockets and
SCIF message streams are built from. ``send`` returns an event (so bounded
channels can exert back-pressure) and ``recv`` returns an event that succeeds
with the oldest message.

The drain step of Snapify's pause protocol is checkable because channels
expose their occupancy: a *consistent* global snapshot requires every
channel between the participating processes to be empty.

Hot-path notes
--------------
A send/recv pair is the innermost operation of every offload call, so the
common cases are fast paths that allocate nothing beyond the result event:

* Names cost nothing until read. A channel keeps its name's parts (see
  :func:`~repro.sim.events.spell`), and its send and receive events name
  themselves ``send:<chan>``/``recv:<chan>`` from the channel when read.
* An unbounded ``send`` with no blocked receiver appends and triggers the
  result event inline — no waiter tuple, no callback list (the event's
  callback list is lazily allocated and stays ``None``).
* A ``recv`` on a non-empty channel pops and triggers inline; the blocked-
  sender scan only runs when a sender is actually parked.
* Direct handoff (send meeting a parked receiver) triggers the receiver's
  event without intermediate objects.
* A layer that must act when a message is taken (SCIF unwraps a sync
  send's envelope and acks it) passes ``on_take``. The channel calls it at
  the one moment an item changes hands, so the layer's readers wait on the
  channel's own receive event and need no wrapper event or callback.
* Idle costs nothing. The message queue, the parked-receiver queue and the
  blocked-sender queue are ``None`` until something is queued or parks, so a
  channel that is never used (most of a large fleet's) holds no container.
  The message and sender queues become deques on first use. Parked
  receivers live in a plain list popped from the front, which costs
  O(parked) per handoff: it is meant for a handful of parked receivers per
  channel. Every layer of this stack has one reader per channel (in the
  benchmark workloads each park finds the receiver queue empty), and a
  list with one entry costs a tenth of an empty deque.

The wakeup *order* of the straightforward implementation is preserved
exactly — trace orderings are part of the kernel's determinism contract.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Deque, List, Optional

from .errors import SimError
from .events import PENDING, Event, NameParts, spell, split

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import Simulator


class ChannelClosed(SimError):
    """Raised from a recv/send on a closed channel."""


class _SendEvent(Event):
    __slots__ = ()
    _FMT = "send:{0.name}"


class _RecvEvent(Event):
    __slots__ = ()
    _FMT = "recv:{0.name}"


class Channel:
    """An ordered, reliable message channel.

    ``capacity=None`` means unbounded (sends always complete immediately).
    ``on_take(item)``, if given, runs when a receiver takes ``item`` (by
    direct handoff, ``recv`` or ``try_recv``), after a blocked sender the
    pop admits and before the receiver wakes; the receiver gets what it
    returns. With ``eof=True`` a receive on the closed channel succeeds with
    ``None`` (end of stream) instead of failing; sends still fail.
    ``name`` is the name or ``(fmt, arg)``, spelled when read (see
    :func:`~repro.sim.events.spell`).
    """

    __slots__ = (
        "sim",
        "_name",
        "_arg",
        "capacity",
        "_items",
        "_recv_waiters",
        "_send_waiters",
        "closed",
        "_close_error",
        "sent_count",
        "received_count",
        "_on_take",
        "_eof",
    )

    def __init__(
        self,
        sim: "Simulator",
        name: NameParts = "chan",
        capacity: Optional[int] = None,
        on_take: Optional[Callable[[Any], Any]] = None,
        eof: bool = False,
    ):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 or None")
        self.sim = sim
        self._name, self._arg = split(name)
        self.capacity = capacity
        # Allocated on first use; see "Idle costs nothing" above.
        self._items: Optional[Deque[Any]] = None
        self._recv_waiters: Optional[List[Event]] = None
        self._send_waiters: Optional[Deque[tuple[Event, Any]]] = None
        self.closed = False
        self._close_error: Optional[SimError] = None
        self.sent_count = 0
        self.received_count = 0
        self._on_take = on_take
        self._eof = eof

    @property
    def name(self) -> str:
        return spell(self._name, self._arg)

    # -- introspection (used by drain-invariant checks) ---------------------
    @property
    def qsize(self) -> int:
        return len(self._items) if self._items else 0

    @property
    def empty(self) -> bool:
        return not self._items

    @property
    def in_flight(self) -> int:
        """Messages sent but not yet received (queued + blocked senders)."""
        return self.qsize + (len(self._send_waiters) if self._send_waiters else 0)

    # -- operations ----------------------------------------------------------
    def send(self, item: Any) -> Event:
        """Enqueue ``item``; the returned event succeeds once it is accepted."""
        ev = _SendEvent(self.sim, self)
        if self.closed:
            ev.fail(self._close_error or ChannelClosed(self.name))
            return ev
        self.sent_count += 1
        # Direct handoff to the oldest blocked receiver keeps FIFO intact.
        # Skip receivers whose thread was interrupted/killed while waiting,
        # or the message would vanish into the void.
        recv_waiters = self._recv_waiters
        while recv_waiters:
            recv_ev = recv_waiters.pop(0)
            if recv_ev._state is not PENDING or not recv_ev._callbacks:
                continue  # triggered elsewhere, or abandoned
            self.received_count += 1
            if self._on_take is not None:
                item = self._on_take(item)
            recv_ev.succeed(item)
            ev.succeed(None)
            return ev
        items = self._items
        if items is None:
            items = self._items = deque()
        if self.capacity is not None and len(items) >= self.capacity:
            if self._send_waiters is None:
                self._send_waiters = deque()
            self._send_waiters.append((ev, item))
        else:
            items.append(item)
            ev.succeed(None)
        return ev

    def recv(self) -> Event:
        """The returned event succeeds with the oldest message."""
        ev = _RecvEvent(self.sim, self)
        if self._items:
            ev.succeed(self._take())
        elif self.closed:
            self._end(ev)
        elif self._recv_waiters is None:
            self._recv_waiters = [ev]
        else:
            self._recv_waiters.append(ev)
        return ev

    def try_recv(self) -> tuple[bool, Any]:
        """Non-blocking receive; (True, item) or (False, None)."""
        if self._items:
            return True, self._take()
        return False, None

    def _take(self) -> Any:
        """Pop the oldest queued item for a receiver."""
        self.received_count += 1
        item = self._items.popleft()
        if self._send_waiters:
            self._admit_blocked_sender()
        if self._on_take is not None:
            item = self._on_take(item)
        return item

    def _admit_blocked_sender(self) -> None:
        while self._send_waiters:
            ev, item = self._send_waiters.popleft()
            if ev._state is not PENDING or not ev._callbacks:
                continue  # triggered elsewhere, or abandoned
            self._items.append(item)
            ev.succeed(None)
            return

    def close(self, error: Optional[SimError] = None) -> None:
        """Close the channel; pending and future operations fail.

        Used to model connection teardown when a process on one side is
        terminated (e.g. an offload process being swapped out). An
        ``eof=True`` channel keeps the messages already queued: receives
        take them first and see end of stream after the last, as a stream
        socket delivers queued data before EOF.
        """
        if self.closed:
            return
        self.closed = True
        # Without an error, each failure builds its ChannelClosed when it
        # happens: a closed channel keeps no spelled name.
        self._close_error = error
        for ev in self._recv_waiters or ():
            if not ev.triggered:
                self._end(ev)
        for ev, _ in self._send_waiters or ():
            if not ev.triggered:
                ev.fail(error or ChannelClosed(self.name))
        if not (self._eof and self._items):
            self._items = None
        self._recv_waiters = self._send_waiters = None

    def _end(self, recv_ev: Event) -> None:
        """Trigger a receive that the closed channel can never satisfy."""
        if self._eof:
            recv_ev.succeed(None)
        else:
            recv_ev.fail(self._close_error or ChannelClosed(self.name))
