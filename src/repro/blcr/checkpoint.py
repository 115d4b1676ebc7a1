"""BLCR checkpoint path.

``cr_checkpoint`` serializes a process through any
:class:`~repro.osim.fd.FileDescriptor` — a local file, an NFS file, or a
Snapify-IO socket. ``cr_request_checkpoint`` is the asynchronous entry point
the paper's offload process uses: the capture request arrives over the
daemon pipe, and the process checkpoints itself.
"""

from __future__ import annotations


from typing import Optional, Sequence

from ..osim.fd import FileDescriptor
from ..osim.process import SimProcess
from ..sim.errors import SimError
from ..sim.events import Event
from .context import RECORD_CPU_COST, ProcessContext
from .incremental import capture_incremental


def page_walk_cost(os_instance) -> float:
    """Per-byte kernel cost of walking/copying process pages on this OS.

    Nonzero on the Phi (slow in-order cores; see PhiParams.blcr_page_cost,
    expressed per 4 KiB page), negligible on the host.
    """
    hw = getattr(os_instance, "hw", None)
    node = getattr(hw, "node", None)
    if node is None:
        return 0.0  # host
    return node.params.phi.blcr_page_cost / 4096.0


def sleep_through(sim, costs: Sequence[float]):
    """Sub-generator: pass ``costs`` back to back, waking once.

    Reaches the instant ``for c in costs: yield sim.sleep(c)`` reaches, bit
    for bit: the clock accumulates ``t = t + c`` as each sleep's wake would,
    then the thread waits once at ``t`` (``sim.at``). Only for loops of
    sleeps that nothing between them observes. One or two costs stay plain
    sleeps: the wait takes two heap entries too.
    """
    if len(costs) <= 2:
        for cost in costs:
            yield sim.sleep(cost)
        return
    t = sim.now
    for cost in costs:
        t = t + cost
    yield sim.at(t)


class BLCRError(SimError):
    """Checkpoint/restart failure."""


def cr_checkpoint(proc: SimProcess, fd: FileDescriptor):
    """Sub-generator: write ``proc``'s context through ``fd``.

    Returns the captured :class:`ProcessContext`. State is copied atomically
    at entry; the time is spent pushing it through the descriptor.
    """
    if not proc.alive:
        raise BLCRError(f"cannot checkpoint dead process {proc.name}")
    ctx = ProcessContext.capture(proc)
    yield from fd.write_records(ctx.write_plan(), RECORD_CPU_COST,
                                page_walk_cost(proc.os))
    return ctx


def cr_request_checkpoint(proc: SimProcess, fd: FileDescriptor) -> Event:
    """Asynchronously checkpoint ``proc`` from within (returns a done event).

    Mirrors BLCR's ``cr_request_checkpoint()``: the work happens on a thread
    inside the target process; the returned event succeeds with the captured
    context (or fails with the checkpoint error).
    """
    done = Event(proc.sim, name=f"ckpt:{proc.name}")

    def _runner(proc: SimProcess = proc):
        try:
            ctx = yield from cr_checkpoint(proc, fd)
        except SimError as exc:
            done.fail(exc)
            return
        done.succeed(ctx)

    proc.spawn_thread(_runner(), name="blcr-checkpoint")
    return done


def cr_checkpoint_incremental(
    proc: SimProcess,
    snapshot_id: str,
    fd: Optional[FileDescriptor] = None,
):
    """Sub-generator: incremental capture of ``proc`` for ``snapshot_id``.

    Returns the captured :class:`DeltaImage` (full base on epoch 0, dirty
    pages after). Kernel-side cost (record assembly + page walks over the
    *shipped* bytes only) is always charged; descriptor writes happen only
    when ``fd`` is given — in-memory tier captures pass ``fd=None`` and the
    image lands in the caller's hands without touching any channel.
    """
    if not proc.alive:
        raise BLCRError(f"cannot checkpoint dead process {proc.name}")
    image = capture_incremental(proc, snapshot_id)
    plan = image.write_plan()
    per_byte = page_walk_cost(proc.os)
    if fd is None:
        yield from sleep_through(
            proc.sim, [RECORD_CPU_COST + per_byte * nbytes for nbytes, _ in plan]
        )
    else:
        yield from fd.write_records(plan, RECORD_CPU_COST, per_byte)
    return image


def cr_request_checkpoint_incremental(
    proc: SimProcess,
    snapshot_id: str,
    fd: Optional[FileDescriptor] = None,
) -> Event:
    """Asynchronous form of :func:`cr_checkpoint_incremental`.

    The work happens on a thread inside the target process; the returned
    event succeeds with the captured :class:`DeltaImage` or fails with the
    checkpoint error — mirroring :func:`cr_request_checkpoint`.
    """
    done = Event(proc.sim, name=f"ickpt:{proc.name}")

    def _runner(proc: SimProcess = proc):
        try:
            image = yield from cr_checkpoint_incremental(proc, snapshot_id, fd)
        except SimError as exc:
            done.fail(exc)
            return
        done.succeed(image)

    proc.spawn_thread(_runner(), name="blcr-checkpoint")
    return done
