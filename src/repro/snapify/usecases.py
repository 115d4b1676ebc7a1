"""The three Snapify use cases of §5: checkpoint/restart, swapping, migration.

These compose the five API calls exactly as the paper's Figures 5-7 do. All
functions are sub-generators meant to run in the context of the host
process (the ``snapify`` CLI and the BLCR callback both end up here).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..blcr import cr_checkpoint, cr_restart
from ..coi.engine import COIEngine
from ..coi.process import COIProcess
from ..osim.fd import RegularFileFD
from ..osim.process import OSInstance, SimProcess
from .api import (
    snapify_restore,
    snapify_resume,
    snapify_t,
)
from ..snapify_io.resilience import TransferManager
from .ops import TRANSFERRING, OperationManager, OperationResult, capture_sequence

HOST_CONTEXT_FILE = "host_context"


def host_context_path(snapshot_path: str) -> str:
    return f"{snapshot_path}/{HOST_CONTEXT_FILE}"


# ---------------------------------------------------------------------------
# Checkpoint and restart (Fig. 5)
# ---------------------------------------------------------------------------


def checkpoint_offload_app(snap: snapify_t):
    """Sub-generator: Fig. 5(a)'s ``snapify_blcr_callback`` checkpoint path.

    Pauses the offload process, captures it asynchronously, snapshots the
    host process with host-side BLCR in the meantime, waits for the offload
    capture, and resumes. Returns the host process's BLCR context; the
    checkpoint's numbers are on ``snap.op.result``.
    """
    coiproc = snap.coiproc
    host_proc = coiproc.host_proc
    sim = coiproc.sim
    t0 = sim.now
    root = sim.trace.span("snapify.checkpoint", parent=snap.span,
                          pid=coiproc.offload_proc.pid, proc=host_proc.name)
    snap.span = root
    op = OperationManager.of(sim).begin("checkpoint", snap, span=root)

    box = {}

    def _host_snapshot():
        # Host snapshot proceeds in parallel with the offload capture.
        t_host0 = sim.now
        sp = sim.trace.span("checkpoint.host_snapshot", parent=root,
                            proc=host_proc.name)
        # Host BLCR context writes are effectively synchronous (kernel-side
        # direct writes): the disk, not the page cache, paces the host snapshot.
        fd = RegularFileFD(sim, host_proc.os.fs,
                           host_context_path(snap.snapshot_path), "w", sync=True)
        host_ctx = yield from cr_checkpoint(host_proc, fd)
        fd.close()
        op.prov.host_snapshot_s = sim.now - t_host0
        op.prov.host_snapshot_bytes = host_ctx.image_bytes
        sp.finish(bytes=host_ctx.image_bytes)
        box["host_ctx"] = host_ctx

    yield from capture_sequence(snap, between=_host_snapshot())
    root.finish(elapsed=sim.now - t0)
    return box["host_ctx"]


def restart_offload_app(
    host_os: OSInstance,
    snapshot_path: str,
    engine: COIEngine,
) -> "RestartResult":
    """Sub-generator: Fig. 5's restart path, from nothing but the snapshot
    directory (both processes are assumed gone — the failure case).

    Restores the host process with BLCR, then takes the restart branch of
    the callback: ``snapify_restore`` + ``snapify_resume``. The host main
    program is started only after the offload process is reattached; it
    finds the new handle in ``proc.runtime['coi_restored_handle']``.
    """
    sim = host_os.sim
    t0 = sim.now
    root = sim.trace.span("snapify.restart", path=snapshot_path)

    sp = sim.trace.span("restart.host_restart", parent=root)
    fd = RegularFileFD(sim, host_os.fs, host_context_path(snapshot_path), "r")
    host_proc = yield from cr_restart(host_os, fd, start=False)
    fd.close()
    t_host = sim.now - t0
    sp.finish()

    snap = snapify_t(snapshot_path=snapshot_path, span=root)
    op = OperationManager.of(sim).begin("restart", snap, span=root)
    op.prov.host_restart_s = t_host
    new_handle = yield from snapify_restore(snap, engine, host_proc)
    host_proc.runtime["coi_restored_handle"] = new_handle
    yield from snapify_resume(snap)

    host_proc.start()
    root.finish(elapsed=sim.now - t0)
    return RestartResult(host_proc=host_proc, coiproc=new_handle, result=op.result)


@dataclass(frozen=True)
class RestartResult:
    host_proc: SimProcess
    coiproc: COIProcess
    #: The restart's typed outcome: ``elapsed`` is the offload restore and
    #: resume; ``host_restart_s`` the host restore that preceded it.
    result: OperationResult


# ---------------------------------------------------------------------------
# Process swapping (Fig. 6)
# ---------------------------------------------------------------------------


def snapify_swapout(snapshot_path: str, coiproc: COIProcess,
                    localstore_node: int = 0, parent: Optional[object] = None):
    """Sub-generator: Fig. 6's swap-out — pause, capture with terminate,
    wait. Returns the ``snapify_t`` representing the swapped-out process.

    ``localstore_node`` routes the local-store save: 0 (the host) for plain
    swapping; a target card's SCIF id for migration's direct path.
    ``parent`` optionally roots the operation's span tree under an enclosing
    span (migration passes its own)."""
    sim = coiproc.sim
    root = sim.trace.span("snapify.swapout", parent=parent,
                          pid=coiproc.offload_proc.pid, path=snapshot_path,
                          proc=coiproc.host_proc.name)
    snap = snapify_t(snapshot_path=snapshot_path, coiproc=coiproc,
                     localstore_node=localstore_node, span=root)
    OperationManager.of(sim).begin("swapout", snap, span=root)
    t0 = sim.now
    yield from capture_sequence(snap, terminate=True)
    root.finish(elapsed=sim.now - t0)
    return snap


def snapify_swapin(snap: snapify_t, engine: COIEngine, host_proc: Optional[SimProcess] = None,
                   parent: Optional[object] = None):
    """Sub-generator: Fig. 6's swap-in — restore on ``engine`` and resume.
    Returns the new COIProcess handle."""
    sim = engine.sim
    t0 = sim.now
    if host_proc is None:
        if snap.coiproc is None:
            raise ValueError("swapin needs a host process")
        host_proc = snap.coiproc.host_proc
    root = sim.trace.span("snapify.swapin", parent=parent,
                          device=engine.device_id, proc=host_proc.name)
    snap.span = root
    OperationManager.of(sim).begin("swapin", snap, span=root)
    new = yield from snapify_restore(snap, engine, host_proc)
    yield from snapify_resume(snap)
    root.finish(elapsed=sim.now - t0)
    return new


# ---------------------------------------------------------------------------
# Process migration (Fig. 7)
# ---------------------------------------------------------------------------


def snapify_migration(coiproc: COIProcess, engine_to: COIEngine,
                      snapshot_path: str = "/tmp/snapify_migration"):
    """Sub-generator: Fig. 7 verbatim — swap out of the current device,
    swap in on ``engine_to``. Returns ``(new COIProcess, (swap-out result,
    swap-in result))``; the migration spans from the swap-out's ``started``
    to the swap-in's ``finished``."""
    sim = coiproc.sim
    t0 = sim.now
    root = sim.trace.span("snapify.migration", pid=coiproc.offload_proc.pid,
                          device_to=engine_to.device_id, proc=coiproc.host_proc.name)
    # §7: "In process migration, the offload process copies its local store
    # directly from its current coprocessor to another coprocessor using
    # Snapify-IO. Thus the pause time in process migration is different."
    snap = yield from snapify_swapout(
        snapshot_path, coiproc, localstore_node=engine_to.phi.scif_node_id,
        parent=root,
    )
    swapout = snap.op.result
    new = yield from snapify_swapin(snap, engine_to, parent=root)
    root.finish(elapsed=sim.now - t0)
    return new, (swapout, snap.op.result)


# ---------------------------------------------------------------------------
# Resilient snapshot transfer (docs/architecture.md, "Transfer resilience")
# ---------------------------------------------------------------------------


def transfer_snapshot(
    src_os: OSInstance,
    dst_node: int,
    src_path: str,
    dst_path: str,
    *,
    kind: str = "transfer",
    manager: Optional[TransferManager] = None,
    policy=None,
    proc: Optional[SimProcess] = None,
    span=None,
):
    """Sub-generator: move one snapshot file to SCIF node ``dst_node``
    through the degradation chain (Snapify-IO, then NFS, then scp), as a
    first-class operation.

    The operation enters ``TRANSFERRING`` immediately and bounces through
    ``RETRYING`` for every failed attempt; the frozen
    :class:`~repro.snapify.ops.OperationResult` records which channel
    finally carried the snapshot and how many attempts it took. A transfer
    the whole chain cannot complete fails the operation with the aggregated
    cause chain and re-raises
    :class:`~repro.snapify_io.resilience.TransferFailed`.
    """
    sim = src_os.sim
    mgr = OperationManager.of(sim)
    op = mgr.begin(kind, span=span)
    op.transition(TRANSFERRING, path=dst_path, node=dst_node)
    tm = manager if manager is not None else TransferManager(policy=policy)
    try:
        yield from tm.send_file(
            src_os, dst_node, src_path, dst_path, proc=proc, op=op,
            span=int(getattr(span, "span_id", span) or 0),
        )
    except Exception as exc:
        op.fail(f"{type(exc).__name__}: {exc}")
        raise
    op.complete()
    return op.result
