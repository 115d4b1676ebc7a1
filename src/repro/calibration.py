"""Calibrated hardware parameters for reproducing the paper's evaluation.

Each value is anchored either to the paper's testbed (Table 2: Xeon E5-2630
host, Xeon Phi 5110P with 8 GB, MPSS 2.1) or to public Xeon Phi-era
measurements; the deliberately *tuned* values (marked) were chosen so the
simulated baselines land in the paper's reported ranges. EXPERIMENTS.md
records the per-table comparison.

Summary of anchors:

* PCIe x16 Gen2 DMA: ~6-6.5 GB/s large-transfer SCIF RDMA (Intel SCIF docs).
* Phi single-stream memcpy: ~2 GB/s (1.05 GHz in-order cores).
* Host disk: 2014 single-SATA server disk, ~120 MB/s effective sync write —
  this is what makes the SS/SG host snapshots the slow part of Fig. 10.
* NFS-over-PCIe (virtio ethernet): ~180/330 MB/s write/read streaming,
  ~1.2 ms per synchronous RPC (tuned: yields Table 3's ~6x/3x write/read
  gap and Table 4's 4.7-8.8x checkpoint speedups).
* scp: ~28 MB/s — a single 1 GHz in-order Phi core doing AES without
  AES-NI (tuned to Table 3's 22-30x).
* BLCR page-walk cost on the Phi: 2 µs / 4 KiB page (tuned: puts swap-out
  and migration latencies in the seconds range of Fig. 10 while preserving
  Table 4's transport-bound ratios).
"""

from __future__ import annotations

from .hw.params import (
    GB,
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
)


def paper_testbed(phis_per_node: int = 2) -> HardwareParams:
    """The single-node testbed of Table 2 (two 8 GB Xeon Phi 5110P)."""
    return HardwareParams(
        host=HostParams(
            cores=12,
            memory=MemoryParams(capacity=32 * GB, memcpy_bw=6.0 * GB),
            disk=DiskParams(
                read_bw=140 * MB,
                write_bw=120 * MB,
                op_latency=0.3e-3,
                dirty_limit=4 * GB,
            ),
            process_spawn_latency=30e-3,
        ),
        phi=PhiParams(
            cores=60,
            threads_per_core=4,
            memory=MemoryParams(capacity=8 * GB, memcpy_bw=2.0 * GB),
            ramfs_write_factor=1.3,
            process_spawn_latency=120e-3,
            dyld_latency=60e-3,
            blcr_page_cost=2e-6,
        ),
        pcie=PCIeParams(
            dma_bw_h2d=6.0 * GB,
            dma_bw_d2h=6.5 * GB,
            message_latency=10e-6,
            rdma_op_latency=25e-6,
        ),
        network=NetworkParams(bandwidth=3.2 * GB, latency=2e-6),
        nfs=NFSParams(
            write_bw=180 * MB,
            read_bw=330 * MB,
            op_latency=1.2e-3,
            client_cache=2 * MB,
            rpc_size=1 * MB,
        ),
        scp=ScpParams(bandwidth=28 * MB, connection_setup=0.35, per_file_overhead=0.05),
        snapify_io=SnapifyIOParams(
            buffer_size=4 * MB,
            socket_bw_phi=1.3 * GB,
            socket_bw_host=5.0 * GB,
            connect_latency=3.5e-3,
        ),
        phis_per_node=phis_per_node,
    )
