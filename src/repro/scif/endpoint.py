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
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ..hw.node import ServerNode
from ..hw.pcie import DEVICE_TO_HOST, HOST_TO_DEVICE, PCIeLink
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


class ConnectionReset(ScifError):
    """The peer endpoint vanished (its process died or closed)."""


def _segments(src_os: "OSInstance", dst_os: "OSInstance") -> List[Tuple[PCIeLink, str]]:
    """PCIe path between two OS instances on the same node.

    host->phi and phi->host are one hop; phi->phi is store-and-forward
    through host memory (two hops), matching MPSS's P2P implementation.
    """
    src_hw = getattr(src_os, "hw", None)
    dst_hw = getattr(dst_os, "hw", None)
    if src_hw is None or dst_hw is None:
        raise ScifError("OS instance not attached to hardware (boot_node first)")
    if src_os is dst_os:
        return []
    if isinstance(src_hw, ServerNode) and not isinstance(dst_hw, ServerNode):
        return [(dst_hw.link, HOST_TO_DEVICE)]
    if not isinstance(src_hw, ServerNode) and isinstance(dst_hw, ServerNode):
        return [(src_hw.link, DEVICE_TO_HOST)]
    if not isinstance(src_hw, ServerNode) and not isinstance(dst_hw, ServerNode):
        return [(src_hw.link, DEVICE_TO_HOST), (dst_hw.link, HOST_TO_DEVICE)]
    raise ScifError("host-to-host SCIF connections are not part of the model")


class ScifNetwork:
    """Per-node SCIF fabric: the (node_id, port) listener registry."""

    def __init__(self, node: ServerNode):
        self.node = node
        self.sim = node.sim
        self._listeners: Dict[Tuple[int, int], Channel] = {}
        self._ephemeral = itertools.count(EPHEMERAL_BASE)
        self.endpoints: List["ScifEndpoint"] = []
        reg = MetricsRegistry.of(self.sim)
        self._m_connects = reg.counter(f"scif.{node.name}.connections")
        reg.gauge(f"scif.{node.name}.open_endpoints",
                  lambda: sum(1 for ep in self.endpoints if not ep.closed))
        reg.gauge(f"scif.{node.name}.pending_messages",
                  lambda: sum(ep.pending for ep in self.endpoints if not ep.closed))

    @staticmethod
    def of(node: ServerNode) -> "ScifNetwork":
        net = getattr(node, "scif", None)
        if net is None:
            net = ScifNetwork(node)
            node.scif = net  # type: ignore[attr-defined]
        return net

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
            if getattr(getattr(os_, "hw", None), "link_down", False):
                raise ScifError(f"connect: PCIe link down on {os_.name}")
        client = ScifEndpoint(self.sim, src_os, port=next(self._ephemeral), proc=proc)
        server = ScifEndpoint(self.sim, dst_os, port=dst_port)
        client._attach(server)
        server._attach(client)
        self._m_connects.inc()
        self.endpoints.append(client)
        self.endpoints.append(server)
        # Connection handshake: one control message each way.
        for link, direction in _segments(src_os, dst_os):
            yield from link.message(direction)
        for link, direction in _segments(dst_os, src_os):
            yield from link.message(direction)
        yield backlog.send(server)
        return client


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

    def __init__(self, sim: "Simulator", os: "OSInstance", port: int,
                 proc: Optional["SimProcess"] = None):
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
        self._rx = Channel(sim, name=f"scif.ep{self.eid}.rx")
        self._m_msgs = MetricsRegistry.of(sim).counter("scif.messages")
        self.closed = False
        #: offset -> window size; see repro.scif.registry
        self.windows: Dict[int, int] = {}
        if proc is not None:
            # Duck-typed cleanup: SimProcess.terminate() calls close().
            proc.open_fds.append(self)  # type: ignore[arg-type]

    def _attach(self, peer: "ScifEndpoint") -> None:
        self.peer = peer

    # -- messaging -------------------------------------------------------------
    def send(self, msg: Any, nbytes: int = 64):
        """Sub-generator: scif_send() of a control message."""
        if self.closed:
            raise ScifError(f"ep{self.eid}: send on closed endpoint")
        peer = self.peer
        if peer is None or peer.closed:
            raise ConnectionReset(f"ep{self.eid}: peer gone")
        for link, direction in _segments(self.os, peer.os):
            yield from link.message(direction, nbytes)
        if not _segments(self.os, peer.os):
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
        ack = Event(self.sim, name=f"ep{self.eid}.sync-ack")
        yield from self.send(_SyncEnvelope(msg, ack), nbytes)
        yield ack
        peer = self.peer
        if peer is not None and not peer.closed:
            for link, direction in _segments(peer.os, self.os):
                yield from link.message(direction)

    def recv(self) -> Event:
        """Event for the next scif_recv() message (sync sends unwrapped)."""
        if self.closed:
            raise ScifError(f"ep{self.eid}: recv on closed endpoint")
        ev = Event(self.sim, name=f"ep{self.eid}.recv")
        inner = self._rx.recv()

        def on_inner(inner_ev: Event) -> None:
            if ev.triggered:
                return
            if not inner_ev.ok:
                ev.fail(inner_ev.exception)
                return
            item = inner_ev._value
            if isinstance(item, _SyncEnvelope):
                item.ack.succeed(None)
                ev.succeed(item.msg)
            else:
                ev.succeed(item)

        inner.add_callback(on_inner)
        return ev

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

    def __repr__(self) -> str:  # pragma: no cover
        return f"<ScifEndpoint {self.eid} on {self.os.name} port={self.port}>"
