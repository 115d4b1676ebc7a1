"""Multi-node cluster with an interconnect, for the MPI experiments (Fig. 11)."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from .node import ServerNode
from .params import HardwareParams
from .pcie import BandwidthLink

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.kernel import Simulator


class Cluster:
    """``n_nodes`` Xeon Phi servers joined by a switched fabric.

    The fabric is modeled as one full-duplex NIC per node (ingress and
    egress bandwidth resources); the switch core is assumed non-blocking,
    which matches small InfiniBand clusters like the paper's 4-node testbed.
    """

    def __init__(self, sim: "Simulator", params: HardwareParams, n_nodes: int = 4):
        if n_nodes < 1:
            raise ValueError("cluster needs >= 1 node")
        self.sim = sim
        self.params = params
        self.nodes: List[ServerNode] = [
            ServerNode(sim, params, index=i) for i in range(n_nodes)
        ]
        bw = params.network.bandwidth
        self._tx: Dict[int, BandwidthLink] = {
            i: BandwidthLink(sim, bw, name=f"{node.name}.nic.tx")
            for i, node in enumerate(self.nodes)
        }
        self._rx: Dict[int, BandwidthLink] = {
            i: BandwidthLink(sim, bw, name=f"{node.name}.nic.rx")
            for i, node in enumerate(self.nodes)
        }

    def transfer(self, src: int, dst: int, nbytes: int):
        """Sub-generator: move ``nbytes`` from node ``src`` to node ``dst``.

        Same-node transfers are free (shared memory). Cross-node transfers
        pay the wire latency once and occupy the sender's egress and the
        receiver's ingress sequentially — a slight pessimism that stands in
        for store-and-forward switching.
        """
        if src == dst:
            return
        lat = self.params.network.latency
        yield from self._tx[src].occupy(nbytes, extra_latency=lat)
        yield from self._rx[dst].occupy(0, extra_latency=0.0)
