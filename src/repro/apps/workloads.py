"""Workload profiles for the paper's benchmarks (Table 5 stand-ins).

The paper evaluates 8 OpenMP offload benchmarks and 3 NAS multi-zone MPI
benchmarks. Table 5 (benchmark characteristics) is an image in our source
text, so the profiles below are *synthesized* to satisfy every quantitative
statement §7 makes about them:

* MD has the highest Snapify runtime overhead (many short offload calls);
  the average overhead across the suite is ~1.5 % and the max < 5 % (Fig 9).
* SS and SG have the largest host snapshots (up to ~1.3 GB) and the largest
  local stores, with comparatively small offload snapshots (Fig 10b).
* MC is the smallest workload — fastest migration (4.9 s in the paper).
* Checkpoint file sizes span ~8 MB to ~1.3 GB across the suite.

The four names the prose mentions (MD, MC, SS, SG) are kept; the suite is
completed with common HPC kernels (BP, CG, FT, KM).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..hw.params import GB, KB, MB


@dataclass(frozen=True)
class BenchmarkProfile:
    """Characteristics of one offload benchmark."""

    name: str
    description: str
    #: Private heap of the host process (dominates the host snapshot).
    host_heap: int
    #: Private heap of the offload process (dominates the offload snapshot).
    offload_heap: int
    #: Total COI buffer bytes (the local store).
    local_store: int
    #: Number of COI buffers the local store is split into.
    n_buffers: int
    #: Size of the card-side binary.
    binary_size: int
    #: Simulated card time per offload call.
    call_duration: float
    #: Host compute between offload calls.
    host_compute: float
    #: Bytes moved host->card / card->host around each call.
    transfer_in: int
    transfer_out: int
    #: Offload calls in a full run.
    iterations: int


#: The 8 OpenMP benchmarks (Fig. 9 / Fig. 10).
OPENMP_BENCHMARKS: Dict[str, BenchmarkProfile] = {
    p.name: p
    for p in [
        BenchmarkProfile(
            name="BP", description="back-propagation training",
            host_heap=32 * MB, offload_heap=260 * MB, local_store=120 * MB,
            n_buffers=3, binary_size=6 * MB,
            call_duration=3.0e-3, host_compute=0.5e-3,
            transfer_in=2 * MB, transfer_out=2 * MB, iterations=300,
        ),
        BenchmarkProfile(
            name="CG", description="conjugate gradient solver",
            host_heap=48 * MB, offload_heap=420 * MB, local_store=200 * MB,
            n_buffers=4, binary_size=5 * MB,
            call_duration=8.0e-3, host_compute=1.0e-3,
            transfer_in=4 * MB, transfer_out=1 * MB, iterations=250,
        ),
        BenchmarkProfile(
            name="FT", description="3-D FFT spectral kernel",
            host_heap=56 * MB, offload_heap=650 * MB, local_store=280 * MB,
            n_buffers=4, binary_size=7 * MB,
            call_duration=15.0e-3, host_compute=2.0e-3,
            transfer_in=8 * MB, transfer_out=8 * MB, iterations=200,
        ),
        BenchmarkProfile(
            name="KM", description="k-means clustering",
            host_heap=24 * MB, offload_heap=180 * MB, local_store=60 * MB,
            n_buffers=2, binary_size=4 * MB,
            call_duration=2.5e-3, host_compute=0.4e-3,
            transfer_in=1 * MB, transfer_out=512 * KB, iterations=400,
        ),
        BenchmarkProfile(
            name="MC", description="Monte Carlo option pricing",
            host_heap=8 * MB, offload_heap=64 * MB, local_store=6 * MB,
            n_buffers=1, binary_size=3 * MB,
            call_duration=20.0e-3, host_compute=0.2e-3,
            transfer_in=64 * KB, transfer_out=64 * KB, iterations=200,
        ),
        BenchmarkProfile(
            name="MD", description="molecular dynamics (short steps)",
            host_heap=20 * MB, offload_heap=140 * MB, local_store=48 * MB,
            n_buffers=2, binary_size=5 * MB,
            call_duration=0.55e-3, host_compute=0.05e-3,
            transfer_in=256 * KB, transfer_out=256 * KB, iterations=2000,
        ),
        BenchmarkProfile(
            name="SG", description="scatter-gather index build",
            host_heap=1100 * MB, offload_heap=120 * MB, local_store=800 * MB,
            n_buffers=8, binary_size=5 * MB,
            call_duration=12.0e-3, host_compute=3.0e-3,
            transfer_in=16 * MB, transfer_out=4 * MB, iterations=150,
        ),
        BenchmarkProfile(
            name="SS", description="sample sort over large keys",
            host_heap=1300 * MB, offload_heap=150 * MB, local_store=1000 * MB,
            n_buffers=8, binary_size=5 * MB,
            call_duration=10.0e-3, host_compute=4.0e-3,
            transfer_in=16 * MB, transfer_out=16 * MB, iterations=150,
        ),
    ]
}

OPENMP_NAMES: List[str] = list(OPENMP_BENCHMARKS)


@dataclass(frozen=True)
class MZProfile:
    """One NAS multi-zone MPI benchmark, class C (Fig. 11)."""

    name: str
    #: Total problem state across all ranks.
    total_state: int
    #: Fixed per-rank footprint (runtime, halos) independent of rank count.
    per_rank_fixed: int
    #: Fraction of a rank's state living on the host vs the card.
    host_fraction: float
    #: Per-iteration zone-exchange bytes between neighbor ranks.
    exchange_bytes: int
    call_duration: float
    iterations: int


NAS_MZ_BENCHMARKS: Dict[str, MZProfile] = {
    p.name: p
    for p in [
        MZProfile(name="LU-MZ", total_state=1200 * MB, per_rank_fixed=90 * MB,
                  host_fraction=0.45, exchange_bytes=6 * MB,
                  call_duration=40e-3, iterations=60),
        MZProfile(name="SP-MZ", total_state=900 * MB, per_rank_fixed=80 * MB,
                  host_fraction=0.40, exchange_bytes=4 * MB,
                  call_duration=30e-3, iterations=60),
        MZProfile(name="BT-MZ", total_state=1000 * MB, per_rank_fixed=85 * MB,
                  host_fraction=0.42, exchange_bytes=5 * MB,
                  call_duration=35e-3, iterations=60),
    ]
}


def mz_rank_footprint(profile: MZProfile, n_ranks: int) -> Tuple[int, int, int]:
    """(host_heap, offload_heap, local_store) for one rank of ``n_ranks``."""
    share = profile.total_state // n_ranks + profile.per_rank_fixed
    host_heap = int(share * profile.host_fraction)
    card_share = share - host_heap
    local_store = int(card_share * 0.55)
    offload_heap = card_share - local_store
    return host_heap, offload_heap, local_store
