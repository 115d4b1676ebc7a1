"""COIEngine: the host-side entry point for one coprocessor."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from ..hw.node import PhiDevice, ServerNode
from ..osim.process import OSInstance, SimProcess
from ..scif.endpoint import ScifEndpoint, ScifNetwork
from ..scif.rdma import dma
from ..scif.ports import COI_DAEMON_PORT
from . import messages as m
from .pipeline import OffloadBinary
from .process import COIProcess
from .services import COIError

if TYPE_CHECKING:  # pragma: no cover
    pass


class COIEngine:
    """Host-side view of one Xeon Phi device."""

    def __init__(self, node: ServerNode, phi_index: int):
        self.node = node
        self.sim = node.sim
        self.phi: PhiDevice = node.phis[phi_index]
        if node.os is None or self.phi.os is None:
            raise COIError("boot the host and card OSes before creating engines")
        self.host_os: OSInstance = node.os
        self.phi_os: OSInstance = self.phi.os
        self.net = ScifNetwork.of(node)

    @property
    def device_id(self) -> int:
        """The engine's device number (0-based card index), as used by
        ``snapify_restore(snapshot, device)``."""
        return self.phi.index

    def connect_daemon(self, host_proc: SimProcess):
        """Sub-generator: open the host process's control connection to the
        card's COI daemon; returns the endpoint."""
        ep = yield from self.net.connect(
            self.host_os, self.phi.scif_node_id, COI_DAEMON_PORT, proc=host_proc
        )
        return ep

    def connect_channels(self, host_proc: SimProcess, port: int) -> "ChannelConnector":
        return ChannelConnector(self, host_proc, port)

    def process_create(self, host_proc: SimProcess, binary: OffloadBinary,
                       snapify_enabled: bool = True):
        """Sub-generator: launch ``binary`` as an offload process.

        Mirrors §2: the host asks the daemon to spawn the process, ships the
        card binary over PCIe, then connects the COI channels. Returns a
        :class:`COIProcess` handle. ``snapify_enabled=False`` launches with
        the stock (unsnapshotable) runtime — the Fig. 9 baseline.
        """
        daemon_ep = yield from self.connect_daemon(host_proc)
        # Copy the Xeon Phi binary (dynamically loadable library) to the card.
        yield from dma(self.sim, self.net.route(self.host_os, self.phi_os),
                       binary.image_size)
        yield from daemon_ep.send({
            "type": m.LAUNCH, "name": host_proc.name, "binary": binary,
            "host_proc": host_proc, "snapify_enabled": snapify_enabled,
        })
        reply = yield daemon_ep.recv()
        if not (isinstance(reply, dict) and reply.get("type") == m.LAUNCH_OK):
            raise COIError(f"launch failed: {reply!r}")
        eps = yield from self.connect_channels(host_proc, reply["port"]).connect_all()
        return COIProcess(
            host_proc=host_proc,
            engine=self,
            binary=binary,
            offload_proc=reply["offload_proc"],
            daemon_ep=daemon_ep,
            eps=eps,
            snapify_enabled=snapify_enabled,
        )


class ChannelConnector:
    """Connects the six COI channels to a (new or restored) offload process."""

    def __init__(self, engine: COIEngine, host_proc: SimProcess, port: int):
        self.engine = engine
        self.host_proc = host_proc
        self.port = port

    def connect_all(self):
        """Sub-generator: returns dict of channel-name -> host endpoint."""
        eng = self.engine
        eps: Dict[str, ScifEndpoint] = {}
        for name in m.CHANNELS:
            ep = yield from eng.net.connect(
                eng.host_os, eng.phi.scif_node_id, self.port, proc=self.host_proc
            )
            yield from ep.send(name)
            eps[name] = ep
        return eps
