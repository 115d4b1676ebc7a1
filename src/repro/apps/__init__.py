"""Applications: offload benchmarks and native micro-benchmarks."""

from .native import MallocLoopBenchmark, copy_microbenchmark
from .offload import OffloadApplication, build_binary, expected_checksum
from .workloads import (
    NAS_MZ_BENCHMARKS,
    OPENMP_BENCHMARKS,
    OPENMP_NAMES,
    BenchmarkProfile,
    MZProfile,
    mz_rank_footprint,
)

__all__ = [
    "BenchmarkProfile",
    "MZProfile",
    "MallocLoopBenchmark",
    "NAS_MZ_BENCHMARKS",
    "OPENMP_BENCHMARKS",
    "OPENMP_NAMES",
    "OffloadApplication",
    "build_binary",
    "copy_microbenchmark",
    "expected_checksum",
    "mz_rank_footprint",
]
