"""Turn-key simulated testbeds.

Booting the full stack (hardware node, host + card OSes, COI daemons,
Snapify-IO daemons) takes a dozen steps; examples, tests and benchmarks all
need it. :class:`XeonPhiServer` assembles one server; :class:`XeonPhiCluster`
assembles the 4-node MPI testbed of §7.

The module-level helpers carry the topology boilerplate the demos share:
:func:`offload_app` builds an offload benchmark from its catalog name,
:func:`offload_process` spawns a raw host + offload process pair with
pre-populated buffers, and :func:`mz_job` stands up an MPI NAS-MZ job on a
cluster.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from .coi.daemon import COIDaemon
from .coi.engine import COIEngine
from .hw.cluster import Cluster
from .hw.node import ServerNode
from .hw.params import HardwareParams
from .osim.boot import boot_node
from .osim.process import OSInstance
from .scif.endpoint import ScifNetwork
from .sim.kernel import SimGen, Simulator
from .snapify_io.daemon import SnapifyIODaemon


class XeonPhiServer:
    """A booted single-node testbed: OSes, COI daemons, Snapify-IO daemons."""

    def __init__(
        self,
        sim: Optional[Simulator] = None,
        params: Optional[HardwareParams] = None,
        name: Optional[str] = None,
        node: Optional[ServerNode] = None,
    ):
        self.sim = sim or Simulator()
        if params is None:
            from .calibration import paper_testbed

            params = paper_testbed()
        self.params = params
        self.node = node or ServerNode(self.sim, self.params, name=name)
        self.host_os, self.phi_oses = boot_node(self.node)
        ScifNetwork.of(self.node)
        self.coi_daemons: List[COIDaemon] = []
        self.io_daemons: List[SnapifyIODaemon] = []
        self._boot()

    def _boot(self) -> None:
        def setup(sim):
            for phi in self.node.phis:
                daemon = yield from COIDaemon.boot(phi)
                self.coi_daemons.append(daemon)
            daemons = yield from SnapifyIODaemon.boot_all(self.node)
            self.io_daemons.extend(daemons)

        self.run(setup(self.sim))

    # -- conveniences ------------------------------------------------------------
    def engine(self, device: int = 0) -> COIEngine:
        """COIEngine for card ``device`` (0-based)."""
        return COIEngine(self.node, device)

    def phi_os(self, device: int = 0) -> OSInstance:
        return self.phi_oses[device]

    def run(self, gen: SimGen, name: str = "driver") -> Any:
        """Run a driver generator to completion; return its value."""
        t = self.sim.spawn(gen, name=name)
        self.sim.run_until(t.done)
        return t.done.value

    @property
    def now(self) -> float:
        return self.sim.now


# ---------------------------------------------------------------------------
# Fleet topologies — pre-baked, reproducible multi-node layouts (the gem5
# standard-library idea: CI and demos name a topology instead of hand-rolling
# node counts, so "rack32" means the same 32 cards everywhere).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FleetTopology:
    """A named fleet layout: how many servers, how many Phis per server."""

    name: str
    n_nodes: int
    phis_per_node: int
    description: str = ""

    @property
    def cards(self) -> int:
        return self.n_nodes * self.phis_per_node


FLEET_TOPOLOGIES: Dict[str, FleetTopology] = {
    t.name: t
    for t in (
        FleetTopology("dev2", 1, 2, "the paper's single dual-Phi server"),
        FleetTopology("rack8", 4, 2, "four dual-Phi servers (one rack unit)"),
        FleetTopology("rack32", 8, 4, "eight quad-Phi servers (a full rack)"),
        FleetTopology("pod64", 16, 4, "sixteen quad-Phi servers (two racks)"),
        FleetTopology("hall128", 16, 8, "sixteen 8-Phi servers (machine hall)"),
    )
}


class XeonPhiFleet:
    """A booted multi-node, multi-Phi fleet built from a named topology.

    Many cards per node, addressed uniformly by :class:`~repro.snapify.
    fleet.CardRef` so one :class:`~repro.snapify.fleet.FleetManager` can
    drive every card behind one key space.
    """

    def __init__(self, topology: Any = "rack32",
                 sim: Optional[Simulator] = None,
                 params: Optional[HardwareParams] = None):
        if isinstance(topology, str):
            try:
                topology = FLEET_TOPOLOGIES[topology]
            except KeyError:
                known = ", ".join(sorted(FLEET_TOPOLOGIES))
                raise ValueError(
                    f"unknown fleet topology {topology!r} (known: {known})"
                ) from None
        self.topology: FleetTopology = topology
        self.sim = sim or Simulator()
        if params is None:
            from .calibration import paper_testbed

            params = paper_testbed(phis_per_node=topology.phis_per_node)
        self.params = params
        self.cluster = Cluster(self.sim, self.params, n_nodes=topology.n_nodes)
        self.servers: List[XeonPhiServer] = [
            XeonPhiServer(sim=self.sim, params=self.params, node=node)
            for node in self.cluster.nodes
        ]

    def __len__(self) -> int:
        return self.topology.cards

    def cards(self) -> List[Any]:
        """Every card in the fleet as a CardRef, node-major order."""
        from .snapify.fleet import CardRef

        return [
            CardRef(node=n, device=d)
            for n in range(self.topology.n_nodes)
            for d in range(self.topology.phis_per_node)
        ]

    def server(self, node: int) -> XeonPhiServer:
        return self.servers[node]

    def phi(self, card: Any):
        """The PhiDevice behind a CardRef."""
        return self.servers[card.node].node.phis[card.device]

    def engine(self, card: Any) -> COIEngine:
        return self.servers[card.node].engine(card.device)

    def run(self, gen: SimGen, name: str = "driver") -> Any:
        t = self.sim.spawn(gen, name=name)
        self.sim.run_until(t.done)
        return t.done.value


class XeonPhiCluster(XeonPhiFleet):
    """The paper's MPI testbed (§7, Fig. 11): ``n_nodes`` single-Phi
    (8 GB) servers on a fabric."""

    def __init__(
        self,
        n_nodes: int = 4,
        params: Optional[HardwareParams] = None,
        sim: Optional[Simulator] = None,
    ):
        super().__init__(FleetTopology(f"cluster{n_nodes}", n_nodes, 1),
                         sim=sim, params=params)


# ---------------------------------------------------------------------------
# Topology helpers — the per-demo boilerplate, shared.
# ---------------------------------------------------------------------------


def offload_app(server: XeonPhiServer, benchmark: str, *,
                iterations: Optional[int] = None, device: int = 0,
                name: Optional[str] = None, snapify_enabled: bool = True):
    """An :class:`~repro.apps.OffloadApplication` built from the named
    OPENMP benchmark profile (``"CG"``, ``"MC"``, ``"KM"``…), optionally
    shortened to ``iterations``."""
    from .apps import OPENMP_BENCHMARKS, OffloadApplication

    return OffloadApplication(
        server, OPENMP_BENCHMARKS[benchmark], device=device,
        iterations=iterations, name=name, snapify_enabled=snapify_enabled,
    )


def offload_process(server: XeonPhiServer, name: str, binary, *,
                    device: int = 0, image_size: Optional[int] = None,
                    buffers=()):
    """Sub-generator: spawn a host process, create its offload process from
    ``binary`` on card ``device``, and populate one COI buffer per
    ``(size, payload)`` entry of ``buffers``. Returns ``(coiproc, bufs)``.

    This is the hand-rolled prologue of every raw-API demo and protocol
    test; snapshot handles take the returned ``coiproc`` directly.
    """
    if image_size is None:
        image_size = 4 * 1024 * 1024
    host_proc = yield from server.host_os.spawn_process(name, image_size=image_size)
    coiproc = yield from server.engine(device).process_create(host_proc, binary)
    bufs = []
    for size, payload in buffers:
        buf = yield from coiproc.buffer_create(size)
        yield from coiproc.buffer_write(buf, payload=payload)
        bufs.append(buf)
    return coiproc, bufs


def mz_job(cluster: "XeonPhiCluster", benchmark: str, *, n_ranks: int = 4,
           iterations: Optional[int] = None):
    """An MPI NAS-MZ job (one rank per node) from its catalog name."""
    from .apps import NAS_MZ_BENCHMARKS
    from .apps.nas_mz import MZJob

    return MZJob(cluster, NAS_MZ_BENCHMARKS[benchmark], n_ranks=n_ranks,
                 iterations=iterations)
