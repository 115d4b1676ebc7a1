"""The Snapify API (Table 1 of the paper).

Five functions over a ``snapify_t`` handle:

* :func:`snapify_pause` — stop and drain every communication channel
  between the host process, the COI daemon and the offload process, then
  save the local store to the host snapshot directory. Blocking.
* :func:`snapify_capture` — snapshot the offload process via BLCR through
  Snapify-IO. **Non-blocking**: returns immediately; the handle's semaphore
  is posted on completion.
* :func:`snapify_wait` — wait for a pending capture.
* :func:`snapify_resume` — release every lock taken by the pause, on both
  sides.
* :func:`snapify_restore` — rebuild the offload process from a snapshot on
  a given device; returns the new ``COIProcess`` handle (the restored
  process stays blocked until ``snapify_resume``).

Each function records what it measured on its operation's
:class:`~repro.snapify.ops.Provenance`, which becomes the typed
:class:`~repro.snapify.ops.OperationResult` on ``snap.op.result`` — the raw
material of Figures 10 and 11 (pause and capture times are the result's
``phases``). When tracing is on,
each function also opens a :class:`~repro.sim.trace.Span` (parented on
``snap.span``, the use-case root) and forwards its span id inside the
SERVICE message, so the daemon- and agent-side work joins the same causal
tree; :class:`repro.obs.PhaseBreakdown` turns that tree into the paper's
Figure 9/10-style component tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..coi.engine import COIEngine
from ..coi.process import COIProcess
from ..coi import messages as m
from ..osim.process import SimProcess
from ..sim.sync import Semaphore
from . import constants as c
from .monitor import SnapifyError
from .ops import (
    CAPTURING,
    CAPTURING_DELTA,
    DRAINED,
    PAUSING,
    REPLICATING,
    REQUESTED,
    TRANSFERRING,
    OperationManager,
)


@dataclass
class snapify_t:
    """The API handle (``snapify_t`` in Table 1)."""

    #: m_snapshot_path: directory on the host file system.
    snapshot_path: str
    #: m_process: the COIProcess handle (replaced by snapify_restore).
    coiproc: Optional[COIProcess] = None
    #: m_sem: signaled when a non-blocking capture completes.
    sem: Optional[Semaphore] = None
    #: SCIF node the local store is saved to at pause (0 = the host; a
    #: card's SCIF id for migration's direct device-to-device path).
    localstore_node: int = 0
    #: Set when an in-flight capture failed (offload process died).
    error: Optional[str] = None
    #: Root span of the enclosing use case (swap-out, checkpoint, ...); the
    #: API calls parent their own spans on it. None/NULL_SPAN when untraced.
    span: Optional[Any] = None
    #: The in-flight :class:`~repro.snapify.ops.SnapifyOperation`. Use cases
    #: open it via ``OperationManager.begin``; a raw API call on a handle
    #: with no live operation auto-issues one. Its correlation id rides in
    #: every SERVICE message this handle sends.
    op: Optional[Any] = None
    #: Incremental mode: captures ship only dirty pages since the previous
    #: epoch and land in the in-memory partner tier instead of streaming the
    #: full image over Snapify-IO. Off by default — the classic full-capture
    #: path (and its trace) is untouched unless a caller opts in.
    incremental: bool = False
    #: Size of the offload image this handle last wrote to
    #: ``snapshot_path``; a restore on the handle reports it as the image
    #: it read back. None until the handle captures.
    image_bytes: Optional[int] = None


def _ensure_libs_file(host_os) -> None:
    """MPSS keeps the runtime libraries on the host FS; materialize them."""
    if not host_os.fs.exists(c.LIBS_SOURCE_PATH):
        f = host_os.fs.create(c.LIBS_SOURCE_PATH)
        f.size = c.COI_LIBS_SIZE
        # MPSS maps these libraries for every offload launch; they are
        # permanently warm in the host page cache.
        f.in_page_cache = True


def snapify_pause(snap: snapify_t):
    """Sub-generator implementing §4.1's pause."""
    coiproc = snap.coiproc
    if coiproc is None or coiproc.dead:
        raise SnapifyError("pause: no live offload process in handle")
    sim = coiproc.sim
    mgr = OperationManager.of(sim)
    op = mgr.adopt(snap)
    op.transition(PAUSING)
    t0 = sim.now
    host_os = coiproc.host_proc.os
    host_name = coiproc.host_proc.name
    pid = coiproc.offload_proc.pid
    sp = sim.trace.span("snapify.pause", parent=snap.span, pid=pid, proc=host_name)

    # Step 0: copy the runtime libraries into the snapshot directory
    # (host-local copy; the footnote-2 optimization).
    sub = sim.trace.span("pause.libs_copy", parent=sp, proc=host_name)
    _ensure_libs_file(host_os)
    yield from host_os.fs.read(c.LIBS_SOURCE_PATH)
    yield from host_os.fs.write(c.libs_path(snap.snapshot_path), c.COI_LIBS_SIZE)
    sub.finish(bytes=c.COI_LIBS_SIZE)

    # Steps 1-3: service request; daemon opens the pipe and signals the
    # offload process; its ack is relayed back to us.
    sub = sim.trace.span("pause.handshake", parent=sp, proc=host_name)
    yield from coiproc.daemon_ep.send(
        {"type": c.SERVICE, "op": c.OP_PAUSE_INIT, "pid": pid,
         "span": sp.span_id, "op_id": op.op_id}
    )
    ack = yield from mgr.recv_reply(op, coiproc.daemon_ep)
    if ack.get("t") != c.PAUSE_ACK:
        raise op.fail_with(f"pause handshake failed: {ack!r}")
    sub.finish()

    # Step 4: tell the offload agent to drain its side, and drain ours
    # concurrently (cases 1-4 of §4.1).
    sub = sim.trace.span("pause.drain", parent=sp, proc=host_name)
    yield from coiproc.daemon_ep.send(
        {"type": c.SERVICE, "op": c.OP_PAUSE_GO, "pid": pid,
         "path": snap.snapshot_path, "localstore_node": snap.localstore_node,
         "span": sp.span_id, "op_id": op.op_id}
    )
    yield from coiproc.quiesce()
    done = yield from mgr.recv_reply(op, coiproc.daemon_ep)
    if done.get("t") == c.SNAPIFY_FAILED:
        sub.finish(error=done.get("reason"))
        sp.finish(error=done.get("reason"))
        raise op.fail_with(f"pause failed: {done.get('reason')}")
    if done.get("t") != c.PAUSE_COMPLETE:
        raise op.fail_with(f"pause did not complete: {done!r}")
    ls_bytes = op.prov.localstore_bytes = done["localstore_bytes"]
    sub.finish(localstore_bytes=ls_bytes)
    elapsed = sim.now - t0
    op.transition(DRAINED, localstore_bytes=ls_bytes,
                  plugins_drained=done["plugins_drained"])
    sp.finish(elapsed=elapsed)
    sim.trace.emit("snapify.pause", pid=pid, path=snap.snapshot_path,
                   elapsed=elapsed)


def snapify_capture(snap: snapify_t, terminate: bool):
    """Sub-generator implementing §4.1's capture. Non-blocking: returns as
    soon as the request is on the wire; ``snap.sem`` is posted when the
    snapshot is saved (use :func:`snapify_wait`)."""
    coiproc = snap.coiproc
    if coiproc is None or not coiproc.paused:
        raise SnapifyError("capture: call snapify_pause first")
    sim = coiproc.sim
    mgr = OperationManager.of(sim)
    op = mgr.adopt(snap)
    op.terminate = op.terminate or terminate
    snap.sem = Semaphore(sim, value=0, name="snapify.capture")
    sp = sim.trace.span("snapify.capture", parent=snap.span,
                        pid=coiproc.offload_proc.pid, terminate=terminate,
                        proc=coiproc.host_proc.name)
    op.transition(CAPTURING_DELTA if snap.incremental else CAPTURING,
                  terminate=terminate)
    msg = {"type": c.SERVICE, "op": c.OP_CAPTURE, "pid": coiproc.offload_proc.pid,
           "path": snap.snapshot_path, "terminate": terminate,
           "span": sp.span_id, "op_id": op.op_id}
    if snap.incremental:
        msg["incremental"] = True
    yield from coiproc.daemon_ep.send(msg)

    def _completion_waiter():
        # Keyed receive: a completion naming another operation fails this
        # one rather than being taken as its own.
        while True:
            try:
                done = yield from mgr.recv_reply(op, coiproc.daemon_ep)
            except Exception as exc:
                if isinstance(exc, SnapifyError):  # misaddressed reply
                    # Untagged: snapify_wait's error adds [op N @ STATE].
                    snap.error, why = exc.reason, "misaddressed-reply"
                else:  # daemon/card died under the capture
                    snap.error = f"lost the COI daemon during capture: {exc}"
                    why = "daemon-lost"
                op.fail(snap.error)
                sp.finish(error=why)
                snap.sem.post()
                return
            if done.get("t") != c.CAPTURE_REPLICATING:
                break
            # Intermediate status from an incremental capture: the delta is
            # committed locally; the partner replica is streaming.
            if op.state == CAPTURING_DELTA:
                op.transition(REPLICATING, epoch=done.get("epoch"),
                              bytes=done.get("delta_bytes"))
        if done.get("t") != c.CAPTURE_COMPLETE:
            # Surface the failure through the semaphore: snapify_wait raises.
            snap.error = done.get("reason", repr(done))
            op.fail(snap.error)
            sp.finish(error="capture-failed")
            snap.sem.post()
            return
        # Transfer provenance from the agent: which channel carried the
        # snapshot and how many attempts the stream took. For a delta
        # capture image_bytes is the LOGICAL image size and delta_bytes
        # what actually moved.
        prov = op.prov
        image_bytes = snap.image_bytes = prov.image_bytes = done["image_bytes"]
        prov.channel = done["channel"]
        prov.attempts = done["attempts"]
        prov.plugin_images = done["plugins"]
        prov.delta_bytes = done.get("delta_bytes")
        shipped = image_bytes if prov.delta_bytes is None else prov.delta_bytes
        op.transition(TRANSFERRING, bytes=shipped)
        sp.finish(bytes=image_bytes)
        sim.trace.emit("snapify.capture", pid=coiproc.offload_proc.pid,
                       terminate=terminate, bytes=image_bytes)
        if terminate:
            coiproc.mark_dead()
        snap.sem.post()

    coiproc.host_proc.spawn_thread(_completion_waiter(), name="snapify-capture-wait",
                                   daemon=True)


def snapify_wait(snap: snapify_t):
    """Sub-generator: block until the pending capture completes.

    Raises :class:`SnapifyError` if the capture failed (e.g. the offload
    process died under it)."""
    if snap.sem is None:
        raise SnapifyError("wait: no capture in flight")
    yield snap.sem.wait()
    if snap.error is not None:
        if snap.op is not None:
            raise snap.op.fail_with(f"capture failed: {snap.error}")
        raise SnapifyError(f"capture failed: {snap.error}")
    op = snap.op
    if op is not None and op.terminate and not op.is_terminal:
        # A terminating capture (swap-out) has no resume step to close the
        # operation; the snapshot being durable completes it here.
        op.complete()


def snapify_resume(snap: snapify_t):
    """Sub-generator implementing §4.2: release the pause on both sides."""
    coiproc = snap.coiproc
    if coiproc is None:
        raise SnapifyError("resume: empty handle")
    sim = coiproc.sim
    mgr = OperationManager.of(sim)
    op = mgr.adopt(snap)
    t0 = sim.now
    sp = sim.trace.span("snapify.resume", parent=snap.span,
                        pid=coiproc.offload_proc.pid, proc=coiproc.host_proc.name)
    yield from coiproc.daemon_ep.send(
        {"type": c.SERVICE, "op": c.OP_RESUME, "pid": coiproc.offload_proc.pid,
         "span": sp.span_id, "op_id": op.op_id}
    )
    ack = yield from mgr.recv_reply(op, coiproc.daemon_ep)
    if ack.get("t") != c.RESUME_ACK:
        raise op.fail_with(f"resume failed: {ack!r}")
    # The offload process released its locks and acknowledged; now ours.
    if coiproc.paused:
        coiproc.release()
    sp.finish(elapsed=sim.now - t0)
    sim.trace.emit("snapify.resume", pid=coiproc.offload_proc.pid)
    if not op.is_terminal:
        op.complete()


def snapify_restore(snap: snapify_t, engine: COIEngine, host_proc: SimProcess):
    """Sub-generator implementing §4.3: restore the offload process from
    ``snap.snapshot_path`` onto ``engine``'s device.

    Returns the new :class:`COIProcess` handle (also stored back into
    ``snap.coiproc``). The restored process stays quiesced until
    :func:`snapify_resume` is called.
    """
    sim = engine.sim
    mgr = OperationManager.of(sim)
    op = mgr.adopt(snap, kind="restore")
    op.prov.image_bytes = snap.image_bytes
    t0 = sim.now
    old = snap.coiproc
    sp = sim.trace.span("snapify.restore", parent=snap.span,
                        device=engine.device_id, proc=host_proc.name)
    if op.state in (REQUESTED, CAPTURING):
        op.transition(TRANSFERRING, device=engine.device_id)

    daemon_ep = yield from engine.connect_daemon(host_proc)
    yield from daemon_ep.send(
        {"type": c.SERVICE, "op": c.OP_RESTORE, "path": snap.snapshot_path,
         "host_proc": host_proc, "localstore_node": snap.localstore_node,
         "span": sp.span_id, "op_id": op.op_id}
    )
    reply = yield from mgr.recv_reply(op, daemon_ep)
    if reply.get("t") != "restore-complete":
        raise op.fail_with(f"restore failed: {reply!r}")

    offload_proc = reply["offload_proc"]
    binary = offload_proc.store.get("_coi_binary")
    sub = sim.trace.span("restore.reconnect", parent=sp, proc=host_proc.name)
    eps = yield from engine.connect_channels(host_proc, reply["port"]).connect_all()
    new = COIProcess(
        host_proc=host_proc, engine=engine, binary=binary,
        offload_proc=offload_proc, daemon_ep=daemon_ep, eps=eps,
    )

    # Re-registration: ask the card for the new RDMA offsets and extend the
    # (old, new) lookup table so stale buffer handles keep working.
    rereg = yield from new.cmd_client.rpc({"type": m.BUFFER_REREGISTER})
    sub.finish()
    new_offsets: Dict[int, int] = rereg["offsets"]
    if old is not None:
        new.rdma_address_map.update(old.rdma_address_map)
        for buf_id, buf in old.buffers.items():
            if buf_id in new_offsets:
                current = old.translate_offset(buf.rdma_offset)
                new.rdma_address_map[current] = new_offsets[buf_id]
                new.buffers[buf_id] = buf
    else:
        from ..coi.buffer import COIBuffer

        for buf_id, info in offload_proc.store.get("buffers", {}).items():
            new.buffers[buf_id] = COIBuffer(
                buf_id=buf_id, size=info["size"],
                rdma_offset=new_offsets[buf_id], localstore_path=info["path"],
            )

    snap.coiproc = new
    op.prov.restore_s = sim.now - t0
    op.pid = new.offload_proc.pid  # attribution now points at the restored pid
    if op.card is None:  # a restart opened without a process to read it from
        op.card = engine.phi.key
    sp.finish(pid=new.offload_proc.pid, elapsed=op.prov.restore_s)
    sim.trace.emit("snapify.restore", pid=new.offload_proc.pid,
                   device=engine.device_id, path=snap.snapshot_path)
    return new
