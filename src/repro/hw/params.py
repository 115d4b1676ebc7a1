"""Hardware parameter sets.

All bandwidths are bytes/second, latencies are seconds, and sizes are bytes.
The defaults here are deliberately *neutral*; the values used to reproduce
the paper's tables live in :mod:`repro.calibration`, which documents how each
number was anchored to the paper's testbed (Table 2) or public Xeon Phi-era
specifications.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict

KB = 1024
MB = 1024 * KB
GB = 1024 * MB


@dataclass(frozen=True)
class PCIeParams:
    """One PCIe x16 Gen2 link between the host and one Xeon Phi card."""

    #: DMA bandwidth host -> device (SCIF RDMA, large transfers).
    dma_bw_h2d: float = 6.0 * GB
    #: DMA bandwidth device -> host.
    dma_bw_d2h: float = 6.5 * GB
    #: One-way latency for a small control message (scif_send of bytes).
    message_latency: float = 10e-6
    #: Per-RDMA-operation setup cost (descriptor ring, doorbell).
    rdma_op_latency: float = 25e-6
    #: Cost of registering one page run for RDMA, per MB (pinning pages).
    register_latency_per_mb: float = 30e-6
    #: Fixed cost of any registration call.
    register_latency_fixed: float = 80e-6
    #: Effective end-to-end bandwidth of device-to-device (peer-to-peer)
    #: transfers through the root complex — notoriously far below the
    #: host-device DMA rate on Xeon Phi era platforms.
    p2p_bw: float = 1.2 * GB


@dataclass(frozen=True)
class DiskParams:
    """Host secondary storage (spinning disk / entry SSD of the 2014 era)."""

    read_bw: float = 500 * MB
    write_bw: float = 350 * MB
    op_latency: float = 100e-6
    #: Writeback cache limit; writes beyond this throttle to disk speed.
    dirty_limit: int = 4 * GB


@dataclass(frozen=True)
class MemoryParams:
    """A physical memory pool (host DRAM or Phi GDDR5)."""

    capacity: int = 16 * GB
    #: Single-stream memcpy bandwidth. Phi cores are slow scalar cores, so
    #: this is far below the aggregate 352 GB/s stream figure.
    memcpy_bw: float = 2.0 * GB


@dataclass(frozen=True)
class PhiParams:
    """One Xeon Phi coprocessor (5110P-like)."""

    cores: int = 60
    threads_per_core: int = 4
    memory: MemoryParams = field(default_factory=lambda: MemoryParams(capacity=8 * GB))
    #: RAM-backed file system overhead factor on top of memcpy.
    ramfs_write_factor: float = 1.3
    #: Time to fork+exec a process on the card.
    process_spawn_latency: float = 120e-3
    #: Time to dynamically load the offload library into a process.
    dyld_latency: float = 60e-3
    #: BLCR kernel-side cost per 4 KiB page when walking/copying process
    #: memory on the card's slow in-order cores (charged on checkpoint,
    #: restart and local-store streaming).
    blcr_page_cost: float = 0.0


@dataclass(frozen=True)
class HostParams:
    """The host side of one node."""

    cores: int = 12
    memory: MemoryParams = field(default_factory=lambda: MemoryParams(capacity=32 * GB, memcpy_bw=6.0 * GB))
    disk: DiskParams = field(default_factory=DiskParams)
    process_spawn_latency: float = 30e-3


@dataclass(frozen=True)
class NetworkParams:
    """Inter-node fabric for the MPI experiments (IB QDR-like)."""

    bandwidth: float = 3.2 * GB
    latency: float = 2e-6


@dataclass(frozen=True)
class NFSParams:
    """NFS mount of the host file system on the card (over PCIe net device).

    NFS-over-PCIe rides a virtual ethernet device, so its streaming
    bandwidth is far below raw DMA and every RPC pays a round-trip.
    """

    write_bw: float = 180 * MB
    read_bw: float = 330 * MB
    #: Per-RPC overhead (the killer for BLCR's many small writes).
    op_latency: float = 1.2e-3
    #: Client-side write-back cache: writes up to this total are absorbed
    #: at memcpy speed before the slow path starts (why NFS wins at 1 MB).
    client_cache: int = 2 * MB
    #: Maximum bytes per RPC (wsize/rsize).
    rpc_size: int = 1 * MB


@dataclass(frozen=True)
class ScpParams:
    """scp between card and host: single-stream ssh with encryption.

    Throughput is bounded by one slow Phi core doing AES+MAC.
    """

    bandwidth: float = 48 * MB
    connection_setup: float = 0.35
    per_file_overhead: float = 0.05


@dataclass(frozen=True)
class SnapifyIOParams:
    """Tunables of the Snapify-IO daemons."""

    #: RDMA staging buffer per connection (the paper picks 4 MB).
    buffer_size: int = 4 * MB
    #: UNIX-socket copy bandwidth on the card (user <-> daemon).
    socket_bw_phi: float = 1.7 * GB
    #: UNIX-socket copy bandwidth on the host.
    socket_bw_host: float = 5.0 * GB
    #: Cost of establishing the local socket + remote SCIF connection.
    connect_latency: float = 1.5e-3
    #: Ack the RDMA pull before the host file write (the paper's design).
    #: Ablation: False serializes the file write into the transfer loop.
    async_flush: bool = True


@dataclass(frozen=True)
class HardwareParams:
    """Everything needed to instantiate a simulated Xeon Phi server."""

    host: HostParams = field(default_factory=HostParams)
    phi: PhiParams = field(default_factory=PhiParams)
    pcie: PCIeParams = field(default_factory=PCIeParams)
    network: NetworkParams = field(default_factory=NetworkParams)
    nfs: NFSParams = field(default_factory=NFSParams)
    scp: ScpParams = field(default_factory=ScpParams)
    snapify_io: SnapifyIOParams = field(default_factory=SnapifyIOParams)
    phis_per_node: int = 2

    def with_(self, **kwargs) -> "HardwareParams":
        """Functional update helper for ablation sweeps."""
        return replace(self, **kwargs)


def describe(params: HardwareParams) -> Dict[str, str]:
    """Human-readable summary used by benchmark harness headers."""
    return {
        "pcie dma h2d": f"{params.pcie.dma_bw_h2d / GB:.1f} GB/s",
        "pcie dma d2h": f"{params.pcie.dma_bw_d2h / GB:.1f} GB/s",
        "phi memory": f"{params.phi.memory.capacity / GB:.0f} GB",
        "host disk write": f"{params.host.disk.write_bw / MB:.0f} MB/s",
        "nfs write": f"{params.nfs.write_bw / MB:.0f} MB/s",
        "scp": f"{params.scp.bandwidth / MB:.0f} MB/s",
        "snapify-io buffer": f"{params.snapify_io.buffer_size / MB:.0f} MB",
    }
