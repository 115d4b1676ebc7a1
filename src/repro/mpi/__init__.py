"""MPI substrate, coordinated checkpoint/restart, and team replication.

The NAS-MZ job these drive is :class:`repro.apps.nas_mz.MZJob`.
"""

from .cr import mpi_checkpoint, mpi_restart, rank_snapshot_path
from .replication import (
    HeartbeatDetector,
    ReplicationError,
    TeamComm,
    plan_replica_placement,
)
from .runtime import MPIComm, MPIError

__all__ = [
    "HeartbeatDetector",
    "MPIComm",
    "MPIError",
    "ReplicationError",
    "TeamComm",
    "mpi_checkpoint",
    "mpi_restart",
    "plan_replica_placement",
    "rank_snapshot_path",
]
