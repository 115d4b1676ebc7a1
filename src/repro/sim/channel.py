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

* The event names ``send:<chan>``/``recv:<chan>`` are interpolated once per
  channel, not once per operation.
* An unbounded ``send`` with no blocked receiver appends and triggers the
  result event inline — no waiter tuple, no callback list (the event's
  callback list is lazily allocated and stays ``None``).
* A ``recv`` on a non-empty channel pops and triggers inline; the blocked-
  sender scan only runs when a sender is actually parked.
* Direct handoff (send meeting a parked receiver) triggers the receiver's
  event without intermediate objects.
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
from typing import TYPE_CHECKING, Any, Deque, List, Optional

from .errors import SimError
from .events import PENDING, Event

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import Simulator


class ChannelClosed(SimError):
    """Raised from a recv/send on a closed channel."""


class Channel:
    """An ordered, reliable message channel.

    ``capacity=None`` means unbounded (sends always complete immediately).
    """

    __slots__ = (
        "sim",
        "name",
        "capacity",
        "_items",
        "_recv_waiters",
        "_send_waiters",
        "closed",
        "_close_error",
        "sent_count",
        "received_count",
        "_send_name",
        "_recv_name",
    )

    def __init__(self, sim: "Simulator", name: str = "chan", capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 or None")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        # Allocated on first use; see "Idle costs nothing" above.
        self._items: Optional[Deque[Any]] = None
        self._recv_waiters: Optional[List[Event]] = None
        self._send_waiters: Optional[Deque[tuple[Event, Any]]] = None
        self.closed = False
        self._close_error: Optional[SimError] = None
        self.sent_count = 0
        self.received_count = 0
        self._send_name = f"send:{name}"
        self._recv_name = f"recv:{name}"

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
        ev = Event(self.sim, name=self._send_name)
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
        ev = Event(self.sim, name=self._recv_name)
        if self._items:
            self.received_count += 1
            ev.succeed(self._items.popleft())
            if self._send_waiters:
                self._admit_blocked_sender()
        elif self.closed:
            ev.fail(self._close_error or ChannelClosed(self.name))
        elif self._recv_waiters is None:
            self._recv_waiters = [ev]
        else:
            self._recv_waiters.append(ev)
        return ev

    def try_recv(self) -> tuple[bool, Any]:
        """Non-blocking receive; (True, item) or (False, None)."""
        if self._items:
            self.received_count += 1
            item = self._items.popleft()
            if self._send_waiters:
                self._admit_blocked_sender()
            return True, item
        return False, None

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
        terminated (e.g. an offload process being swapped out).
        """
        if self.closed:
            return
        self.closed = True
        err = error or ChannelClosed(self.name)
        self._close_error = err
        for ev in self._recv_waiters or ():
            if not ev.triggered:
                ev.fail(err)
        for ev, _ in self._send_waiters or ():
            if not ev.triggered:
                ev.fail(err)
        self._items = self._recv_waiters = self._send_waiters = None
