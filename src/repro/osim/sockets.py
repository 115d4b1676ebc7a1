"""UNIX-domain sockets.

The Snapify-IO library talks to its local daemon over a UNIX socket whose
descriptor is what ``snapifyio_open()`` hands back to the caller (and hence
to BLCR). Data copied through a socket costs memcpy-class bandwidth —
non-trivial on the Phi's slow scalar cores, which is why the socket stage is
one of the pipeline bottlenecks of Snapify-IO's end-to-end throughput.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from ..sim.channel import Channel
from ..sim.errors import SimError
from ..sim.events import Event, NameParts, extend
from .fd import FileDescriptor

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.kernel import Simulator


class SocketError(SimError):
    """Connection failures and misuse."""


class _Datagram:
    __slots__ = ("nbytes", "record")

    def __init__(self, nbytes: int, record: Any):
        self.nbytes = nbytes
        self.record = record


class UnixSocket(FileDescriptor):
    """One endpoint of a connected UNIX socket pair.

    ``write(nbytes, record)`` charges ``nbytes / bandwidth`` (the copy into
    the kernel buffer) and delivers to the peer; ``read`` blocks for the
    next datagram. EOF (peer closed, after the datagrams it had already
    delivered) is returned as ``None`` from ``recv`` style reads, mirroring
    ``read() == 0``. A read waits on the receive queue's own event, so a
    reader killed or interrupted while parked takes no datagram: the next
    reader gets it.
    """

    def __init__(self, sim: "Simulator", bandwidth: float, name: NameParts = "unixsock"):
        super().__init__(sim, name=name)
        self.bandwidth = bandwidth
        # A closed peer's datagrams stay readable; after them, reads see
        # EOF (None), not ChannelClosed.
        self._rx = Channel(sim, name=extend(name, post=".rx"), eof=True)
        self.peer: Optional["UnixSocket"] = None
        #: Namespace address this socket is connected to (set by
        #: :meth:`SocketNamespace.connect` on both halves); None for raw
        #: pairs. Checkpoint plugins use it to reconnect after restore.
        self.address: Optional[str] = None

    @staticmethod
    def pair(
        sim: "Simulator", bandwidth: float, name: NameParts = "unixsock"
    ) -> Tuple["UnixSocket", "UnixSocket"]:
        a = UnixSocket(sim, bandwidth, name=extend(name, post=".a"))
        b = UnixSocket(sim, bandwidth, name=extend(name, post=".b"))
        a.peer, b.peer = b, a
        return a, b

    # -- FileDescriptor interface ------------------------------------------
    def write(self, nbytes: int, record: Any = None):
        self._check_open()
        if self.peer is None:
            raise SocketError(f"{self.name}: not connected")
        if self.peer.closed:
            raise SocketError(f"{self.name}: peer closed (EPIPE)")
        yield self.sim.sleep(nbytes / self.bandwidth)
        yield self.peer._rx.send(_Datagram(nbytes, record))
        self.bytes_written += nbytes

    def write_at(self, when: float, nbytes: int, record: Any = None):
        """Sub-generator: deliver a datagram whose copy the caller timed.

        ``write`` charges ``nbytes / bandwidth`` from now. A writer that
        ran the copies of several records on its own clock instead waits for
        the absolute instant ``when`` (``sim.at``, so the accumulated float
        is not rounded by a subtraction), then delivers as ``write`` does.
        A peer that closed during the wait raises EPIPE.
        """
        self._check_open()
        if self.peer is None:
            raise SocketError(f"{self.name}: not connected")
        yield self.sim.at(when)
        if self.peer.closed:
            raise SocketError(f"{self.name}: peer closed (EPIPE)")
        yield self.peer._rx.send(_Datagram(nbytes, record))
        self.bytes_written += nbytes

    def read(self, nbytes: int = 0):
        """Sub-generator: next datagram's record (None on EOF)."""
        self._check_open()
        dg = yield self._rx.recv()
        if dg is None:
            return None
        self.bytes_read += dg.nbytes
        return dg.record

    def read_datagram(self):
        """Sub-generator: (nbytes, record) of the next datagram, (0, None) on EOF."""
        self._check_open()
        dg = yield self._rx.recv()
        if dg is None:
            return 0, None
        self.bytes_read += dg.nbytes
        return dg.nbytes, dg.record

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        # Deliver EOF to the peer: its reads take the datagrams already
        # queued, then see None.
        self._rx.close()
        if self.peer is not None and not self.peer.closed:
            self.peer._rx.close()


class SocketNamespace:
    """Per-OS registry of listening UNIX sockets (the "filesystem paths")."""

    def __init__(self, sim: "Simulator", default_bandwidth: float):
        self.sim = sim
        self.default_bandwidth = default_bandwidth
        self._listeners: Dict[str, Channel] = {}
        #: address -> Listener for every bound name (oracles audit owners).
        self.bound: Dict[str, "Listener"] = {}

    def listen(self, address: str, owner: Any = None) -> "Listener":
        """Bind ``address``; ``owner`` (a process) gets the listener tracked
        on its ``listeners`` list so process exit releases the name."""
        if address in self._listeners:
            raise SocketError(f"address already in use: {address!r}")
        backlog = Channel(self.sim, name=f"listen:{address}")
        self._listeners[address] = backlog
        listener = Listener(self, address, backlog, owner=owner)
        self.bound[address] = listener
        if owner is not None:
            owner.listeners.append(listener)
        return listener

    def connect(self, address: str, bandwidth: Optional[float] = None):
        """Sub-generator: connect to a listener; returns the client socket."""
        backlog = self._listeners.get(address)
        if backlog is None:
            raise SocketError(f"connection refused: {address!r}")
        bw = bandwidth or self.default_bandwidth
        client, server = UnixSocket.pair(self.sim, bw, name=("conn:{}", address))
        client.address = address
        server.address = address
        yield backlog.send(server)
        return client


class Listener:
    """Accept side of a listening UNIX socket."""

    def __init__(self, ns: SocketNamespace, address: str, backlog: Channel, owner: Any = None):
        self._ns = ns
        self.address = address
        self._backlog = backlog
        #: Owning process (if bound through one); informational, used by
        #: quiescence oracles to detect leaked listener names.
        self.owner = owner

    def accept(self) -> Event:
        """Event that succeeds with the next accepted server-side socket."""
        return self._backlog.recv()

    def close(self) -> None:
        self._ns._listeners.pop(self.address, None)
        self._ns.bound.pop(self.address, None)
        self._backlog.close()
        if self.owner is not None and self in self.owner.listeners:
            self.owner.listeners.remove(self)
