"""A Xeon Phi server node: host + coprocessors + the links between them.

SCIF numbering follows MPSS convention: the host is SCIF node 0 and the
coprocessors are SCIF nodes 1..N.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, List, Optional

from .memory import PhysicalMemory
from .params import HardwareParams
from .pcie import PCIeLink
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
        #: Card death (FaultInjector card failure, cleared on repair): the
        #: one card-health flag every layer reads.
        self.failed = False
        #: Set by the OS layer when it boots a kernel on this card.
        self.os = None

    @property
    def node_index(self) -> int:
        """The node's position in its fleet (0 for a standalone server)."""
        return self.node.index

    @property
    def key(self) -> str:
        """The card's fleet key, ``n<node>.mic<index>``: the one key fleet
        tickets, operations, the memory tier and swap schedulers tag a card
        with."""
        return f"n{self.node_index}.mic{self.index}"

    def __repr__(self) -> str:  # pragma: no cover
        return f"<PhiDevice {self.node.name}/mic{self.index}>"


class ServerNode:
    """One host machine with ``phis_per_node`` coprocessors attached.

    Nodes are numbered per simulator, as thread and endpoint ids are: the
    first unnamed node built on a simulator is ``node0``, the next
    ``node1``, so two testbeds on one kernel keep distinct hardware and
    metric names. ``index`` is the node's position in its fleet (0 for a
    standalone server), the node part of its cards' fleet keys.
    """

    def __init__(self, sim: "Simulator", params: HardwareParams,
                 name: Optional[str] = None, index: int = 0):
        if name is None:
            ids = getattr(sim, "_node_ids", None)
            if ids is None:
                ids = sim._node_ids = itertools.count()
            name = f"node{next(ids)}"
        self.sim = sim
        self.params = params
        self.name = name
        self.index = index
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
