"""Hardware models: PCIe, memory pools, disks, nodes and clusters."""

from .cluster import Cluster
from .memory import MemoryExhausted, PhysicalMemory
from .node import PhiDevice, ServerNode
from .params import (
    GB,
    KB,
    MB,
    DiskParams,
    HardwareParams,
    HostParams,
    MemoryParams,
    NetworkParams,
    NFSParams,
    PCIeParams,
    PhiParams,
    ScpParams,
    SnapifyIOParams,
    describe,
)
from .pcie import BandwidthLink, PCIeLink
from .storage import HostDisk

__all__ = [
    "BandwidthLink",
    "Cluster",
    "DiskParams",
    "GB",
    "HardwareParams",
    "HostDisk",
    "HostParams",
    "KB",
    "MB",
    "MemoryExhausted",
    "MemoryParams",
    "NFSParams",
    "NetworkParams",
    "PCIeLink",
    "PCIeParams",
    "PhiDevice",
    "PhiParams",
    "PhysicalMemory",
    "ScpParams",
    "ServerNode",
    "SnapifyIOParams",
    "describe",
]
