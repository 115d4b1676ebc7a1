"""UNIX pipes.

The COI daemon opens a pipe to the offload process during
``snapify_pause()`` and all subsequent snapshot control traffic (pause /
capture / resume / restore acknowledgements) flows over it. Pipes are
message-preserving and cheap; their cost is a fixed per-message latency.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

from ..sim.channel import Channel
from ..sim.events import Event, NameParts, extend

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.kernel import Simulator

#: Same-kernel pipe write+wakeup cost.
PIPE_LATENCY = 2e-6


class PipeEnd:
    """One end of a unidirectional pipe."""

    def __init__(self, sim: "Simulator", channel: Channel, writable: bool):
        self.sim = sim
        self._channel = channel
        self.writable = writable
        #: Called with no arguments each time a message lands in the pipe
        #: (a reader that sleeps between polls uses it as its doorbell).
        self.on_send: Optional[Callable[[], None]] = None

    def send(self, msg: Any):
        """Sub-generator: write one message."""
        if not self.writable:
            raise RuntimeError("send on the read end of a pipe")
        yield self.sim.sleep(PIPE_LATENCY)
        sent = self._channel.send(msg)
        if self.on_send is not None:
            self.on_send()
        yield sent

    def recv(self) -> Event:
        """Event that succeeds with the next message."""
        if self.writable:
            raise RuntimeError("recv on the write end of a pipe")
        return self._channel.recv()

    def try_recv(self):
        if self.writable:
            raise RuntimeError("recv on the write end of a pipe")
        return self._channel.try_recv()

    @property
    def qsize(self) -> int:
        return self._channel.qsize

    def close(self) -> None:
        self._channel.close()

    @property
    def closed(self) -> bool:
        return self._channel.closed


class UnixPipe:
    """A unidirectional pipe: ``write_end`` -> ``read_end``. Its channel
    keeps ``name``, the name or ``(fmt, arg)``."""

    def __init__(self, sim: "Simulator", name: NameParts = "pipe"):
        self._channel = Channel(sim, name=name)
        self.write_end = PipeEnd(sim, self._channel, writable=True)
        self.read_end = PipeEnd(sim, self._channel, writable=False)


class DuplexPipe:
    """A pair of pipes used as a bidirectional control channel.

    ``a`` and ``b`` are the two endpoints; each has blocking ``send``/``recv``
    toward the other. This models the daemon<->offload-process pipe pair of
    the Snapify pause protocol.
    """

    class Endpoint:
        def __init__(self, out_end: PipeEnd, in_end: PipeEnd):
            self._out = out_end
            self._in = in_end

        def send(self, msg: Any):
            yield from self._out.send(msg)

        def recv(self) -> Event:
            return self._in.recv()

        def try_recv(self):
            return self._in.try_recv()

        @property
        def pending(self) -> int:
            return self._in.qsize

        def close(self) -> None:
            self._out.close()
            self._in.close()

        @property
        def closed(self) -> bool:
            return self._out.closed or self._in.closed

    def __init__(self, sim: "Simulator", name: NameParts = "dpipe",
                 on_a_message: Optional[Callable[[], None]] = None):
        fwd = UnixPipe(sim, name=extend(name, post=".fwd"))
        bwd = UnixPipe(sim, name=extend(name, post=".bwd"))
        # ``on_a_message`` rings each time ``b`` sends toward ``a``.
        bwd.write_end.on_send = on_a_message
        self.a = DuplexPipe.Endpoint(fwd.write_end, bwd.read_end)
        self.b = DuplexPipe.Endpoint(bwd.write_end, fwd.read_end)
