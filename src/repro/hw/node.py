"""A Xeon Phi server node: host + coprocessors + the links between them.

SCIF numbering follows MPSS convention: the host is SCIF node 0 and the
coprocessors are SCIF nodes 1..N.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from .memory import PhysicalMemory
from .params import HardwareParams
from .pcie import PCIeLink, DEVICE_TO_HOST, HOST_TO_DEVICE
from .storage import HostDisk

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.kernel import Simulator


class PhiDevice:
    """One Xeon Phi coprocessor: cores, GDDR5 memory, PCIe uplink."""

    def __init__(self, sim: "Simulator", node: "ServerNode", index: int):
        self.sim = sim
        self.node = node
        self.index = index  # 0-based card index on the node
        self.scif_node_id = index + 1
        params = node.params.phi
        self.params = params
        self.memory = PhysicalMemory(
            sim, params.memory, name=f"{node.name}.mic{index}.mem"
        )
        self.link = PCIeLink(sim, node.params.pcie, name=f"{node.name}.pcie{index}")
        #: Transient link fault (FaultInjector link flap): while True, new
        #: SCIF connections and PCIe-routed transfers to/from this card fail.
        self.link_down = False
        #: Set by the OS layer when it boots a kernel on this card.
        self.os = None

    @property
    def key(self) -> str:
        """The card's fleet key, ``n<node>.mic<index>`` with the node number
        taken from the node name's digits: the one key fleet tickets,
        operations, the memory tier and swap schedulers tag a card with."""
        digits = "".join(ch for ch in self.node.name if ch.isdigit())
        return f"n{digits or 0}.mic{self.index}"

    def __repr__(self) -> str:  # pragma: no cover
        return f"<PhiDevice {self.node.name}/mic{self.index}>"


class ServerNode:
    """One host machine with ``phis_per_node`` coprocessors attached."""

    def __init__(self, sim: "Simulator", params: HardwareParams, name: str = "node0"):
        self.sim = sim
        self.params = params
        self.name = name
        self.memory = PhysicalMemory(sim, params.host.memory, name=f"{name}.host.mem")
        self.disk = HostDisk(
            sim,
            params.host.disk,
            memcpy_bw=params.host.memory.memcpy_bw,
            name=f"{name}.disk",
        )
        self.phis: List[PhiDevice] = [
            PhiDevice(sim, self, i) for i in range(params.phis_per_node)
        ]
        #: Set by the OS layer when it boots the host kernel.
        self.os = None

    def phi(self, index: int) -> PhiDevice:
        return self.phis[index]

    def scif_peer(self, scif_node_id: int):
        """Resolve a SCIF node id to (host | PhiDevice).

        Bounds are checked explicitly: a negative id would otherwise wrap
        through Python list indexing and silently resolve to the wrong card.
        """
        if scif_node_id == 0:
            return self
        if not 1 <= scif_node_id <= len(self.phis):
            raise ValueError(
                f"{self.name}: no SCIF node {scif_node_id} "
                f"(valid: 0..{len(self.phis)})"
            )
        return self.phis[scif_node_id - 1]

    def __repr__(self) -> str:  # pragma: no cover
        return f"<ServerNode {self.name} phis={len(self.phis)}>"


# Re-export direction constants next to the node types for convenience.
__all__ = ["PhiDevice", "ServerNode", "HOST_TO_DEVICE", "DEVICE_TO_HOST"]
