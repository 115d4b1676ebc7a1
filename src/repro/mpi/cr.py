"""Coordinated checkpoint/restart for MPI offload jobs (Fig. 11).

The paper rides BLCR-integrated MPI runtimes: the MPI layer quiesces its
channels, then every rank checkpoints (host process via BLCR, offload
process via Snapify). We model the same structure with an explicit
coordination protocol: ranks park at an iteration boundary (where all MPI
channels are provably empty), every rank's host+offload pair is captured
*in parallel*, and the job resumes. Restart rebuilds every rank from its
snapshot directory.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from ..sim.events import Event
from ..snapify.api import snapify_t
from ..snapify.ops import OperationManager
from ..snapify.usecases import checkpoint_offload_app, restart_offload_app

if TYPE_CHECKING:  # pragma: no cover
    from ..apps.nas_mz import MZJob


def rank_snapshot_path(prefix: str, rank: int) -> str:
    return f"{prefix}/rank{rank}"


def mpi_checkpoint(job: "MZJob", path_prefix: str):
    """Sub-generator: coordinated checkpoint of every rank.

    Returns a dict with the elapsed time, the per-rank typed results and
    each rank's total snapshot size. The elapsed time is the max across
    ranks (they checkpoint concurrently, one per node).
    """
    sim = job.sim
    t0 = sim.now

    # 1. Quiesce the MPI layer: all ranks park at an iteration boundary.
    job.park_requested = True
    job.parked = 0
    job.all_parked = Event(sim, "mpi.all-parked")
    job.release_event = Event(sim, "mpi.release")
    yield job.all_parked
    assert job.comm.pending_messages() == 0, "MPI channels not drained"

    # 2. Capture every rank in parallel: one pre-issued operation per rank,
    #    demultiplexed by correlation id, awaited through the manager.
    mgr = OperationManager.of(sim)
    ops = []
    for rank in job.ranks:
        snap = snapify_t(
            snapshot_path=rank_snapshot_path(path_prefix, rank.rank),
            coiproc=rank.host_proc.runtime["coi_handle"],
        )
        ops.append(mgr.begin("checkpoint", snap))

        def _one(snap=snap):
            yield from checkpoint_offload_app(snap)

        sim.spawn(_one(), name="ckpt-rank")
    results = yield from mgr.wait_all(ops)

    # 3. Release the job.
    job.park_requested = False
    job.release_event.succeed(None)
    job.all_parked = None
    job.release_event = None

    return {
        "elapsed": sim.now - t0,
        "operations": results,
        "rank_snapshot_bytes": {
            rank.rank: r.host_snapshot_bytes + r.image_bytes + r.localstore_bytes
            for rank, r in zip(job.ranks, results)
        },
    }


def mpi_restart(job: "MZJob", path_prefix: str):
    """Sub-generator: restart every rank of a failed job from its snapshot.

    The caller is responsible for having terminated the old processes (or
    they died with their nodes). Returns {'elapsed': wall time}.
    """
    sim = job.sim
    t0 = sim.now
    done_events: List[Event] = []
    restarted: List = []
    for rank in job.ranks:
        done = Event(sim, f"restart.rank{rank.rank}")
        done_events.append(done)

        def _one(rank=rank, done=done):
            result = yield from restart_offload_app(
                rank.server.host_os,
                rank_snapshot_path(path_prefix, rank.rank),
                rank.server.engine(0),
            )
            rank.host_proc = result.host_proc
            restarted.append(result)
            done.succeed(None)

        sim.spawn(_one(), name="restart-rank")
    yield sim.all_of(done_events)
    return {"elapsed": sim.now - t0,
            "operations": [r.result for r in restarted]}
