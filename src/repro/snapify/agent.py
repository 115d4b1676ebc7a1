"""The Snapify card agent: the offload-process side of the protocol.

When the COI daemon receives a pause request it opens a pipe to the offload
process and signals it; the signal handler (installed by the Snapify-
modified COI runtime) attaches this agent to the pipe. The agent then
services pause / capture / resume requests arriving over the pipe:

* **pause** — quiesce the card side of every SCIF channel (drain cases 3
  and 4), then save the local store to the host snapshot directory through
  Snapify-IO.
* **capture** — run BLCR against a Snapify-IO descriptor so the context
  streams straight to the host file system.
* **resume** — release every lock taken by the pause.
"""

from __future__ import annotations


from ..blcr import cr_request_checkpoint
from ..blcr.plugins import PluginRegistry
from ..coi.process import CardRuntime
from ..obs.registry import MetricsRegistry
from ..osim.process import SimProcess
from ..snapify_io.library import snapifyio_open
from . import constants as c


def install_signal_handler(proc: SimProcess) -> None:
    """Install the SIGSNAPIFY handler that attaches the agent to the pipe
    the daemon just created (step 2 of Fig. 3)."""
    from ..osim import signals as sig

    def handler(proc: SimProcess, signum: int):
        pipe_end = proc.runtime.pop("snapify_pipe_pending", None)
        if pipe_end is None:
            return  # spurious signal
        proc.runtime["snapify_pipe"] = pipe_end
        yield from pipe_end.send({"t": c.PAUSE_ACK})
        yield from agent_loop(proc, pipe_end)

    proc.install_signal_handler(sig.SIGSNAPIFY, handler)


def attach_restored_agent(proc: SimProcess) -> None:
    """Restored offload processes get their pipe at creation (no signal)."""
    pipe_end = proc.runtime.pop("snapify_pipe_pending", None)
    if pipe_end is None:
        return
    proc.runtime["snapify_pipe"] = pipe_end
    proc.spawn_thread(_restored_agent(proc, pipe_end), name="snapify-agent", daemon=True)


def _restored_agent(proc: SimProcess, pipe_end):
    yield from pipe_end.send({"t": c.PAUSE_ACK})
    yield from agent_loop(proc, pipe_end)


def agent_loop(proc: SimProcess, pipe_end):
    """Service loop over the daemon pipe."""
    runtime: CardRuntime = proc.runtime["coi"]
    sim = proc.sim
    while True:
        msg = yield pipe_end.recv()
        op = msg["op"]
        parent = msg.get("span", 0)
        # Echoed in every reply so the daemon's monitor thread can route
        # the status to the operation that requested it.
        op_id = msg["op_id"]
        if op == "pause":
            sp = sim.trace.span("agent.pause", parent=parent, proc=proc.name)
            sub = sim.trace.span("agent.quiesce", parent=sp)
            yield from runtime.quiesce()
            sub.finish()
            # Checkpoint-plugin drain phase: at the DRAINED boundary every
            # registered plugin that overrides pre_pause gets to quiesce its
            # resource (e.g. wait out in-flight socket datagrams). With no
            # drain hook registered this emits nothing.
            drainers = PluginRegistry.of(proc.os).drain_plugins()
            if drainers:
                sub = sim.trace.span("agent.plugin_drain", parent=sp,
                                     plugins=len(drainers))
                for plugin in drainers:
                    hook = plugin.pre_pause(proc)
                    if hook is not None:
                        yield from hook
                sub.finish()
            sub = sim.trace.span("agent.localstore_save", parent=sp,
                                 node=msg.get("localstore_node", 0))
            try:
                ls_bytes = yield from save_local_store(
                    proc, runtime, msg["path"],
                    node=msg.get("localstore_node", 0), span=sub.span_id,
                )
            except Exception as exc:
                # The save target is gone (dead card, downed link, crashed
                # IO daemon). Un-pause and report a clean operation failure
                # instead of dying with the locks held — a silent agent
                # death leaves the host waiting on the pipe forever.
                runtime.release()
                sub.finish(error=str(exc))
                yield from pipe_end.send(
                    {"t": c.SNAPIFY_FAILED, "op_id": op_id,
                     "reason": f"local store save failed: {exc}"}
                )
                sp.finish(error=str(exc))
                continue
            sub.finish(bytes=ls_bytes)
            yield from pipe_end.send(
                {"t": c.PAUSE_COMPLETE, "localstore_bytes": ls_bytes,
                 "plugins_drained": len(drainers), "op_id": op_id}
            )
            sp.finish(localstore_bytes=ls_bytes)
        elif op == "capture":
            if msg.get("incremental"):
                sp = sim.trace.span("agent.capture_delta", parent=parent,
                                    proc=proc.name)
                yield from _capture_incremental(proc, pipe_end, msg, op_id, sp)
            else:
                sp = sim.trace.span("agent.capture", parent=parent, proc=proc.name)
                yield from _capture_with_retry(proc, pipe_end, msg, op_id, sp)
        elif op == "resume":
            sp = sim.trace.span("agent.resume", parent=parent, proc=proc.name)
            runtime.release()
            yield from pipe_end.send({"t": c.RESUME_ACK, "op_id": op_id})
            sp.finish()
        else:  # pragma: no cover - protocol error
            raise RuntimeError(f"snapify agent: unknown op {op!r}")


def _capture_with_retry(proc: SimProcess, pipe_end, msg, op_id: int, sp):
    """Sub-generator: run BLCR through Snapify-IO, surviving transient
    stream faults.

    A broken stream (connection reset, link flap, daemon restart) aborts
    the current descriptor — the remote keeps its durable partial — backs
    off per the default :class:`~repro.snapify_io.resilience.RetryPolicy`,
    then re-opens with ``resume=True`` and re-runs the checkpoint; the
    descriptor silently skips the bytes already durable. Exhausted retries
    report ``SNAPIFY_FAILED`` over the pipe (a clean operation failure on
    the host) rather than killing the agent. The fault-free first attempt
    is event-for-event identical to the pre-resilience code.
    """
    from ..snapify_io.resilience import TRANSIENT_ERRORS, RetryPolicy

    sim = proc.sim
    path = c.context_path(msg["path"])
    policy = RetryPolicy()
    attempts = max(1, policy.attempts)
    last_exc = None
    for attempt in range(1, attempts + 1):
        fd = None
        try:
            fd = yield from snapifyio_open(
                proc.os, node=0, path=path, mode="w", proc=proc,
                span=sp.span_id, resume=attempt > 1,
            )
            done = cr_request_checkpoint(proc, fd)
            ctx = yield done
            yield from fd.finish()
        except TRANSIENT_ERRORS as exc:
            last_exc = exc
            if fd is not None and not fd.closed:
                fd.close()  # abort marker: the remote keeps its partial
            if attempt == attempts:
                break
            MetricsRegistry.of(sim).counter("snapifyio.retries").inc()
            sim.trace.emit("io.retry", path=path, channel="snapifyio",
                           attempt=attempt, error=str(exc))
            yield from policy.backoff(sim, attempt)
            continue
        yield from pipe_end.send(
            {"t": c.CAPTURE_COMPLETE, "image_bytes": ctx.image_bytes,
             "plugins": len(ctx.plugin_images), "op_id": op_id,
             "attempts": attempt, "channel": "snapifyio"}
        )
        sp.finish(bytes=ctx.image_bytes)
        return
    yield from pipe_end.send(
        {"t": c.SNAPIFY_FAILED, "op_id": op_id,
         "reason": f"capture stream failed after {attempts} attempts: {last_exc}"}
    )
    sp.finish(error=str(last_exc))


def _capture_incremental(proc: SimProcess, pipe_end, msg, op_id: int, sp):
    """Sub-generator: dirty-page capture into the in-memory partner tier.

    Epoch 0 ships the full base image, later epochs only the pages written
    since the previous capture (the dirty bitmap decides). The image never
    touches a channel here: it is committed to the local card's memory tier
    copy, then replicated to a partner card — NFS demotion is somebody
    else's background ticket. Failures (dead process, tier full) report
    ``SNAPIFY_FAILED`` over the pipe like any other capture failure.
    """
    from ..blcr import cr_request_checkpoint_incremental
    from ..hw.memory import MemoryExhausted
    from ..sim.errors import SimError
    from ..snapify_io.memtier import MemoryTier, TierError

    sim = proc.sim
    path = msg["path"]
    try:
        done = cr_request_checkpoint_incremental(proc, path, fd=None)
        image = yield done
    except SimError as exc:
        yield from pipe_end.send(
            {"t": c.SNAPIFY_FAILED, "op_id": op_id,
             "reason": f"incremental capture failed: {exc}"}
        )
        sp.finish(error=str(exc))
        return
    # Delta harvested and sealed: tell the host before the (potentially
    # slow) partner replication so the operation can show REPLICATING.
    yield from pipe_end.send(
        {"t": c.CAPTURE_REPLICATING, "op_id": op_id, "epoch": image.epoch,
         "delta_bytes": image.delta_bytes}
    )
    tier = MemoryTier.of(sim)
    try:
        placement = yield from tier.store(proc.os, path, image,
                                          span=sp.span_id)
    except (TierError, MemoryExhausted) as exc:
        yield from pipe_end.send(
            {"t": c.SNAPIFY_FAILED, "op_id": op_id,
             "reason": f"memory tier store failed: {exc}"}
        )
        sp.finish(error=str(exc))
        return
    yield from pipe_end.send(
        {"t": c.CAPTURE_COMPLETE, "image_bytes": image.logical_bytes,
         "delta_bytes": image.delta_bytes, "epoch": image.epoch,
         "plugins": len(image.plugin_images),
         "partner": placement.get("partner"), "op_id": op_id,
         "attempts": 1, "channel": "memtier"}
    )
    sp.finish(epoch=image.epoch, delta_bytes=image.delta_bytes,
              logical_bytes=image.logical_bytes)


def save_local_store(proc: SimProcess, runtime: CardRuntime, snapshot_path: str,
                     node: int = 0, span: int = 0):
    """Sub-generator: stream the local store (COI buffer files) through
    Snapify-IO to SCIF node ``node`` — the host (0) for checkpoint/swap, or
    the migration target card directly ("the offload process copies its
    local store directly from its current coprocessor to another
    coprocessor using Snapify-IO", §7). Returns the byte count.

    This does not use any of the quiesced SCIF channels between the host
    process and the offload process — Snapify-IO has its own connection.
    """
    meta = {"buffers": {}}
    total = 0
    fd = yield from snapifyio_open(
        proc.os, node=node, path=c.localstore_path(snapshot_path), mode="w", proc=proc,
        span=span,
    )
    for buf_id, entry in sorted(runtime._buffers.items()):
        f = runtime.buffer_file(buf_id)
        # Read the RAM-FS file, then stream it out.
        yield from proc.os.fs.read(entry["path"])
        yield from fd.write(entry["size"])
        meta["buffers"][buf_id] = {
            "size": entry["size"], "path": entry["path"], "payload": f.payload,
        }
        total += entry["size"]
    yield from fd.write(1, record=meta)
    yield from fd.finish()
    return total
