"""SCIF endpoints: message passing and connections over PCIe.

SCIF (Symmetric Communications Interface) is MPSS's lowest-level IPC: the
host is SCIF node 0, each coprocessor is node 1..N, and endpoints connect
(node, port) pairs. We reproduce the API surface the paper's stack uses —
``connect``/``accept``/``send``/``recv`` plus the RDMA family in
:mod:`repro.scif.rdma` — with transfer costs charged to the PCIe link model.

Endpoint teardown matters: when a process dies (or is terminated by
``snapify_capture(terminate=True)``), its endpoints reset and the peer's
pending receives fail with :class:`ConnectionReset` — the condition
``snapify_restore()`` must repair by reconnecting all channels.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from ..hw.node import ServerNode
from ..hw.params import PCIeParams
from ..hw.pcie import BandwidthLink
from ..obs.registry import MetricsRegistry
from ..sim.channel import Channel
from ..sim.errors import SimError
from ..sim.events import Event
from .ports import EPHEMERAL_BASE

if TYPE_CHECKING:  # pragma: no cover
    from ..osim.process import OSInstance, SimProcess
    from ..sim.kernel import Simulator


class ScifError(SimError):
    """SCIF-level failure."""


class _SyncEnvelope:
    """Wrapper carrying the receipt-acknowledgement event of a sync send."""

    __slots__ = ("msg", "ack")

    def __init__(self, msg: Any, ack: Event):
        self.msg = msg
        self.ack = ack


def _unwrap_sync(item: Any) -> Any:
    """``on_take`` of an endpoint's receive queue: a reader taking a sync
    send's envelope acks it, then gets the bare message."""
    if item.__class__ is _SyncEnvelope:
        item.ack.succeed(None)
        return item.msg
    return item


class ConnectionReset(ScifError):
    """The peer endpoint vanished (its process died or closed)."""


class _SyncAckEvent(Event):
    """Receipt acknowledgement of a sync send; its name slot holds the
    sending endpoint's eid."""

    __slots__ = ()
    _FMT = "ep{}.sync-ack"


#: Name format of an endpoint's receive queue, filled with its eid.
_RX_NAME = "scif.ep{}.rx"


#: One hop of a route: the link direction it occupies and its link's costs.
Hop = Tuple[BandwidthLink, PCIeParams]

#: Size of a control message on the wire (handshakes, sync receipts).
_CTRL_BYTES = 64


def _route(src_os: "OSInstance", dst_os: "OSInstance") -> Tuple[Hop, ...]:
    """The PCIe hops from ``src_os`` to ``dst_os`` on one node: a source
    card's uplink, then a destination card's downlink. phi->phi is thus
    store-and-forward through host memory, as MPSS's P2P path is."""
    hops = []
    if src_os.kind == src_os.PHI:
        hops.append((src_os.hw.link.d2h, src_os.hw.link.params))
    if dst_os.kind == dst_os.PHI:
        hops.append((dst_os.hw.link.h2d, dst_os.hw.link.params))
    return tuple(hops)


def bulk_transfer(
    sim: "Simulator", hops: Tuple[Hop, ...], nbytes: int, latency: float, floor: float = 0.0
):
    """Sub-generator: the one rule for bulk bytes crossing a route. Occupy
    each hop in order for ``latency`` plus its wire time, then sleep out
    what is left of ``floor`` seconds: the pace of a stream slower than the
    wire (P2P root complex, ssh cipher, NFS RPCs). Under contention the
    links, not the floor, set the time."""
    t0 = sim.now
    for blink, _params in hops:
        yield from blink.occupy(nbytes, latency)
    rest = floor - (sim.now - t0)
    if rest > 0:
        yield sim.sleep(rest)


class ScifNetwork:
    """Per-node SCIF fabric: the (node_id, port) listener registry."""

    def __init__(self, node: ServerNode):
        self.node = node
        self.sim = node.sim
        self._listeners: Dict[Tuple[int, int], Channel] = {}
        self._ephemeral = itertools.count(EPHEMERAL_BASE)
        #: Open endpoints by eid, in connect order; close() removes one.
        self.endpoints: Dict[int, "ScifEndpoint"] = {}
        #: (source SCIF node, destination SCIF node) -> hops, shared by every
        #: endpoint on that path. A card's PCIe link is fixed when the node
        #: is built, so a route outlives any OS booted on the card; keying
        #: by node id keeps a rebooted card's old OS collectable.
        self._routes: Dict[Tuple[int, int], Tuple[Hop, ...]] = {}
        reg = MetricsRegistry.of(self.sim)
        self._m_connects = reg.counter(f"scif.{node.name}.connections")
        reg.gauge(f"scif.{node.name}.open_endpoints", lambda: len(self.endpoints))
        reg.gauge(
            f"scif.{node.name}.pending_messages",
            lambda: sum(ep.pending for ep in self.endpoints.values()),
        )

    @staticmethod
    def of(node: ServerNode) -> "ScifNetwork":
        net = getattr(node, "scif", None)
        if net is None:
            net = ScifNetwork(node)
            node.scif = net  # type: ignore[attr-defined]
        return net

    def register(self, ep: "ScifEndpoint") -> None:
        """Track ``ep`` as open until its close()."""
        self.endpoints[ep.eid] = ep
        ep._net = self

    def os_for_scif_node(self, scif_node_id: int) -> "OSInstance":
        peer = self.node.scif_peer(scif_node_id)
        os = peer.os
        if os is None:
            raise ScifError(f"SCIF node {scif_node_id} has no booted OS")
        return os

    # -- listening ------------------------------------------------------------
    def listen(self, os: "OSInstance", port: int) -> "ScifListener":
        scif_node_id = self._node_id_of(os)
        key = (scif_node_id, port)
        if key in self._listeners:
            raise ScifError(f"SCIF port {key} already bound")
        backlog = Channel(self.sim, name=f"scif.listen:{key}")
        self._listeners[key] = backlog
        return ScifListener(self, key, backlog)

    def _node_id_of(self, os: "OSInstance") -> int:
        hw = getattr(os, "hw", None)
        if hw is self.node:
            return 0
        for phi in self.node.phis:
            if hw is phi:
                return phi.scif_node_id
        raise ScifError(f"{os.name} is not on node {self.node.name}")

    def has_listener(self, dst_node_id: int, dst_port: int) -> bool:
        """True if something is bound on (node, port) — the fail-fast probe
        ``snapifyio_open`` uses instead of hanging in the handshake."""
        return (dst_node_id, dst_port) in self._listeners

    # -- connecting --------------------------------------------------------------
    def connect(
        self,
        src_os: "OSInstance",
        dst_node_id: int,
        dst_port: int,
        proc: Optional["SimProcess"] = None,
    ):
        """Sub-generator: connect; returns the client :class:`ScifEndpoint`."""
        key = (dst_node_id, dst_port)
        backlog = self._listeners.get(key)
        if backlog is None:
            raise ScifError(f"connection refused: SCIF {key}")
        dst_os = self.os_for_scif_node(dst_node_id)
        for os_ in (src_os, dst_os):
            if os_.kind == os_.PHI and os_.hw.link_down:
                raise ScifError(f"connect: PCIe link down on {os_.name}")
        out, back = self._shared_routes(src_os, dst_os, dst_node_id)
        client = ScifEndpoint(self.sim, src_os, port=next(self._ephemeral), proc=proc)
        server = ScifEndpoint(self.sim, dst_os, port=dst_port)
        client._attach(server, out, back)
        server._attach(client, back, out)
        self._m_connects.inc()
        self.register(client)
        self.register(server)
        # Connection handshake: one control message each way.
        for hops in (out, back):
            for blink, params in hops:
                yield from blink.occupy(_CTRL_BYTES, params.message_latency)
        yield backlog.send(server)
        return client

    def route(self, src_os: "OSInstance", dst_os: "OSInstance") -> Tuple[Hop, ...]:
        """The shared hops from ``src_os`` to ``dst_os`` (empty for
        loopback): the route every bulk transfer between them occupies."""
        return self._shared_routes(src_os, dst_os, self._node_id_of(dst_os))[0]

    def _shared_routes(
        self, src_os: "OSInstance", dst_os: "OSInstance", dst_node_id: int
    ) -> Tuple[Tuple[Hop, ...], Tuple[Hop, ...]]:
        """The shared routes from ``src_os`` to ``dst_os`` and back."""
        if src_os is dst_os:
            return (), ()
        key = (self._node_id_of(src_os), dst_node_id)
        out = self._routes.get(key)
        if out is None:
            out = self._routes[key] = _route(src_os, dst_os)
            self._routes[key[::-1]] = _route(dst_os, src_os)
        return out, self._routes[key[::-1]]


class ScifListener:
    def __init__(self, net: ScifNetwork, key: Tuple[int, int], backlog: Channel):
        self._net = net
        self.key = key
        self._backlog = backlog

    def accept(self) -> Event:
        """Event yielding the next accepted server-side endpoint."""
        return self._backlog.recv()

    def close(self) -> None:
        self._net._listeners.pop(self.key, None)
        self._backlog.close()


class ScifEndpoint:
    """One end of a SCIF connection."""

    def __init__(
        self, sim: "Simulator", os: "OSInstance", port: int, proc: Optional["SimProcess"] = None
    ):
        self.sim = sim
        self.os = os
        self.port = port
        # Endpoint ids are per-simulator, like thread ids: a process-global
        # counter would make eids (and every ep-derived event name and error
        # message) depend on how many simulators ran earlier, breaking
        # byte-identical replay of fuzz runs.
        ids = getattr(sim, "_scif_eids", None)
        if ids is None:
            ids = sim._scif_eids = itertools.count(1)
        self.eid = next(ids)
        self.proc = proc
        self.peer: Optional["ScifEndpoint"] = None
        #: Hops toward the peer and back (empty for loopback), shared with
        #: every endpoint on the same path (see ``ScifNetwork._shared_routes``).
        self._out: Tuple[Hop, ...] = ()
        self._in: Tuple[Hop, ...] = ()
        # Named from the eid, not the endpoint: the queue holds no reference
        # back, so a closed endpoint pair is freed by refcounting.
        self._rx = Channel(sim, name=(_RX_NAME, self.eid), on_take=_unwrap_sync)
        self._m_msgs = MetricsRegistry.of(sim).counter("scif.messages")
        self.closed = False
        #: The network whose open-endpoint table holds this endpoint.
        self._net: Optional[ScifNetwork] = None
        #: offset -> window size; see repro.scif.registry
        self.windows: Dict[int, int] = {}
        if proc is not None:
            # Duck-typed cleanup: SimProcess.terminate() calls close().
            proc.open_fds.append(self)  # type: ignore[arg-type]

    def _attach(self, peer: "ScifEndpoint", out: Tuple[Hop, ...], back: Tuple[Hop, ...]) -> None:
        self.peer = peer
        self._out = out
        self._in = back

    # -- messaging -------------------------------------------------------------
    def send(self, msg: Any, nbytes: int = _CTRL_BYTES):
        """Sub-generator: scif_send() of a control message."""
        if self.closed:
            raise ScifError(f"ep{self.eid}: send on closed endpoint")
        peer = self.peer
        if peer is None or peer.closed:
            raise ConnectionReset(f"ep{self.eid}: peer gone")
        if self._out:
            for blink, params in self._out:
                yield from blink.occupy(nbytes, params.message_latency)
        else:
            yield self.sim.sleep(1e-6)  # loopback
        self._m_msgs.inc()
        yield peer._rx.send(msg)

    def send_sync(self, msg: Any, nbytes: int = 64):
        """Sub-generator: *rendezvous* send — completes only once the peer
        has actually received the message.

        Snapify's case-4 drain relies on this: the COI pipeline's two send
        sites are "transformed ... to be blocking calls", so holding the
        send locks guarantees the pipeline channel is empty. The receipt
        confirmation costs an extra control message in the reverse
        direction — the per-call price Fig. 9 measures.
        """
        ack = _SyncAckEvent(self.sim, self.eid)
        yield from self.send(_SyncEnvelope(msg, ack), nbytes)
        yield ack
        peer = self.peer
        if peer is not None and not peer.closed:
            for blink, params in self._in:
                yield from blink.occupy(_CTRL_BYTES, params.message_latency)

    def recv(self) -> Event:
        """Event for the next scif_recv() message.

        It is the receive queue's own event. A sync send's envelope is
        unwrapped, and its ack triggered, when the message is handed to a
        live reader (see :func:`_unwrap_sync`). A reader killed or
        interrupted while parked here takes nothing: the message waits for
        the next reader, and a ``send_sync`` stays unacknowledged until one
        takes it.
        """
        if self.closed:
            raise ScifError(f"ep{self.eid}: recv on closed endpoint")
        return self._rx.recv()

    @property
    def pending(self) -> int:
        """Messages queued but not received (drain-invariant probe)."""
        return self._rx.qsize

    # -- teardown ---------------------------------------------------------------
    @staticmethod
    def _fail_queued_sync_acks(channel: Channel, reason: str) -> None:
        for item in list(channel._items or ()):
            if isinstance(item, _SyncEnvelope) and not item.ack.triggered:
                item.ack.fail(ConnectionReset(reason))

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        if self._net is not None:
            del self._net.endpoints[self.eid]
        if self.windows:
            # Release the pinned-page accounting for every window still
            # registered: a reset connection must not strand staging bytes
            # (the `staging_buffers_released` oracle pins this).
            self.os.memory.free(sum(self.windows.values()), "rdma_staging")
        self.windows.clear()
        self._fail_queued_sync_acks(self._rx, f"ep{self.eid} closed")
        self._rx.close(ConnectionReset(f"ep{self.eid} closed"))
        peer = self.peer
        if peer is not None and not peer.closed:
            self._fail_queued_sync_acks(peer._rx, f"peer ep{self.eid} closed")
            peer._rx.close(ConnectionReset(f"peer ep{self.eid} closed"))
        elif peer is not None:
            # Both ends closed: unlink them, so refcounting frees the pair.
            # Every reader treats a missing peer as a closed one.
            self.peer = peer.peer = None

    def __repr__(self) -> str:  # pragma: no cover
        return f"<ScifEndpoint {self.eid} on {self.os.name} port={self.port}>"
