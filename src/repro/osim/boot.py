"""Boot simulated OS kernels onto hardware nodes."""

from __future__ import annotations

from typing import List, Tuple

from ..hw.node import PhiDevice, ServerNode
from .fs import HostFileSystem, RamFileSystem
from .process import OSInstance


def boot_host(node: ServerNode) -> OSInstance:
    """Boot the host Linux: disk-backed FS, host DRAM."""
    params = node.params
    os = OSInstance(
        node.sim,
        name=f"{node.name}.host",
        kind=OSInstance.HOST,
        memory=node.memory,
        fs=HostFileSystem(node.sim, node.disk, name=f"{node.name}.hostfs"),
        socket_bandwidth=params.snapify_io.socket_bw_host,
        spawn_latency=params.host.process_spawn_latency,
    )
    os.hw = node
    node.os = os
    return os


def boot_phi(phi: PhiDevice) -> OSInstance:
    """Boot the Phi's embedded Linux: RAM-disk FS carved from card memory."""
    params = phi.node.params
    os = OSInstance(
        phi.sim,
        name=f"{phi.node.name}.mic{phi.index}",
        kind=OSInstance.PHI,
        memory=phi.memory,
        fs=RamFileSystem(
            phi.sim,
            phi.memory,
            write_factor=params.phi.ramfs_write_factor,
            name=f"{phi.node.name}.mic{phi.index}.ramfs",
        ),
        socket_bandwidth=params.snapify_io.socket_bw_phi,
        spawn_latency=params.phi.process_spawn_latency,
    )
    os.hw = phi
    phi.os = os
    return os


def boot_node(node: ServerNode) -> Tuple[OSInstance, List[OSInstance]]:
    """Boot the host and every coprocessor of a node."""
    host_os = boot_host(node)
    phi_oses = [boot_phi(phi) for phi in node.phis]
    return host_os, phi_oses
