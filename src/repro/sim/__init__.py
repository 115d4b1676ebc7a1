"""Deterministic discrete-event simulation kernel.

This package is the substrate of the whole reproduction: simulated threads
(generators yielding :class:`Event` objects or ``sim.sleep(d)`` delays), a
deterministic scheduler, synchronization primitives with FIFO handoff, and
message channels.
"""

from .channel import Channel, ChannelClosed
from .errors import DeadlockError, Interrupted, SimError, SimTimeLimit, ThreadKilled
from .events import AllOf, AnyOf, Event
from .kernel import Simulator, Thread
from .sync import Mutex, Semaphore
from .trace import NULL_SPAN, Span, TraceRecord, Tracer

__all__ = [
    "AllOf",
    "AnyOf",
    "Channel",
    "ChannelClosed",
    "DeadlockError",
    "Event",
    "Interrupted",
    "Mutex",
    "NULL_SPAN",
    "Semaphore",
    "SimError",
    "SimTimeLimit",
    "Simulator",
    "Span",
    "Thread",
    "ThreadKilled",
    "TraceRecord",
    "Tracer",
]
