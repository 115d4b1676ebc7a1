"""BLCR restart path.

``cr_restart`` reads a context through a descriptor and rebuilds the process
on a target OS: it re-maps every memory region (which can legitimately fail
with :class:`~repro.hw.memory.MemoryExhausted` — restoring a big process
onto a loaded card is exactly the hazard the paper describes), restores the
store, replays every checkpoint plugin's ``post_restart`` hook (sockets,
RAM-FS files, signal state, RDMA windows), and restarts the main program
with ``_blcr_restored`` set so resumable programs take their restart branch.

``cr_restore_context`` is the same rebuild from an in-memory context (the
memory-tier hit path): no descriptor reads, but the per-record CPU cost and
the kernel page-walk over the image bytes are still charged. Both paths
share :func:`_rebuild_process`.
"""

from __future__ import annotations

import copy
from typing import Optional

from ..osim.fd import FileDescriptor
from ..osim.process import OSInstance, SimProcess
from .checkpoint import BLCRError, page_walk_cost, sleep_through
from .context import BULK_CHUNK, RECORD_CPU_COST, SMALL_RECORD, ProcessContext
from .plugins import PluginRegistry

#: Fallback metadata-scan bound when the descriptor's extent is unknowable
#: (e.g. a pipe). 64 Ki records = 16 MiB of metadata — far beyond any
#: context this simulator produces, but finite: a descriptor that never
#: yields a header fails with a diagnostic instead of spinning.
DEFAULT_METADATA_SCAN_LIMIT = 65_536


def _metadata_scan_limit(fd: FileDescriptor) -> int:
    """Upper bound on metadata records the header scan may read.

    Derived from the descriptor itself: a file-backed descriptor cannot hold
    more records than its file size; a record-stream descriptor no more than
    its queued records. Only when neither extent is visible does the
    :data:`DEFAULT_METADATA_SCAN_LIMIT` fallback apply.
    """
    fs = getattr(fd, "fs", None)
    path = getattr(fd, "path", None)
    if fs is not None and path is not None and fs.exists(path):
        return max(1, fs.stat(path).size // SMALL_RECORD + 1)
    records = getattr(fd, "_records", None)
    if records is not None:
        return max(1, len(records))
    return DEFAULT_METADATA_SCAN_LIMIT


def _read_bulk(sim, fd: Optional[FileDescriptor], nbytes: int, per_byte: float):
    """Sub-generator: page-walk ``nbytes`` in ``BULK_CHUNK`` steps, reading
    each chunk from ``fd``. Once ``fd`` is None or exhausted the reads are
    no-ops, and the rest of the walk is one wake."""
    remaining = nbytes
    while remaining > 0 and fd is not None and not fd.exhausted:
        chunk = min(remaining, BULK_CHUNK)
        yield sim.sleep(per_byte * chunk)
        yield from fd.read(chunk)
        remaining -= chunk
    costs = []
    while remaining > 0:
        chunk = min(remaining, BULK_CHUNK)
        costs.append(per_byte * chunk)
        remaining -= chunk
    yield from sleep_through(sim, costs)


def _rebuild_process(
    os: OSInstance,
    ctx: ProcessContext,
    name: Optional[str],
    fd: Optional[FileDescriptor] = None,
):
    """Sub-generator: the shared rebuild behind both restart paths.

    Spawns the process shell, streams in the bulk payload (region pages,
    then plugin bulk, mirroring ``write_plan``'s layout; ``fd`` is None on
    the in-memory path where only the page-walk cost is charged), restores
    the store, and runs every plugin image's ``post_restart`` hook. Region
    data and the store are DEEP-COPIED out of the context: a snapshot may be
    restored from many times (repeated failures), and restored processes
    must never share mutable state with the context or with each other.
    """
    sim = os.sim
    per_byte = page_walk_cost(os)
    proc = yield from os.spawn_process(
        name or ctx.name, image_size=0, main_factory=ctx.main_factory, start=False
    )
    try:
        for region in ctx.regions:
            proc.map_region(
                region.name, region.size, kind=region.kind,
                data=copy.deepcopy(region.data), pinned=region.pinned,
            )
            yield from _read_bulk(sim, fd, region.size, per_byte)

        proc.store.update(copy.deepcopy(ctx.store))
        proc.store["_blcr_restored"] = True

        # Plugin images: drain each one's bulk bytes, then hand it to the
        # target OS's registered plugin to rebuild the resource. A typed
        # PluginError here (unreconnectable socket, RDMA cross-migrate) is a
        # loud failure, not silent corruption — the half-built process is
        # torn down like any other failed restore.
        registry = PluginRegistry.of(os)
        for image in ctx.plugin_images:
            yield from _read_bulk(sim, fd, image.bulk_bytes, per_byte)
            plugin = registry.get(image.plugin)
            hook = plugin.post_restart(proc, image, os)
            if hook is not None:
                yield from hook
    except Exception:
        # Failed restore must not leak the half-built process.
        proc.terminate(code=1)
        raise
    return proc


def cr_restart(
    os: OSInstance,
    fd: FileDescriptor,
    name: Optional[str] = None,
    start: bool = True,
):
    """Sub-generator: rebuild a process from the context behind ``fd``.

    Returns the new :class:`SimProcess`. The read pattern mirrors the write
    pattern: a burst of small metadata reads, then bulk page reads.
    """
    sim = os.sim
    ctx: Optional[ProcessContext] = None
    # Metadata burst: read small records until the context header appears,
    # then the remaining per-thread/per-region metadata records. The scan is
    # bounded by the descriptor's own extent — a corrupt or truncated image
    # fails loudly instead of walking an arbitrary record count.
    reads_done = 0
    scan_limit = _metadata_scan_limit(fd)
    while reads_done < scan_limit:
        yield sim.sleep(RECORD_CPU_COST)
        record = yield from fd.read(SMALL_RECORD)
        reads_done += 1
        if isinstance(record, ProcessContext):
            ctx = record
            break
    if ctx is None:
        raise BLCRError(
            f"no process context header in {fd.name!r} after {reads_done} "
            f"metadata record(s) (scan limit {scan_limit}); the image is "
            "truncated or not a BLCR context"
        )
    remaining = max(0, ctx.n_small_records - reads_done)
    while remaining and not fd.exhausted:
        yield sim.sleep(RECORD_CPU_COST)
        yield from fd.read(SMALL_RECORD)
        remaining -= 1
    yield from sleep_through(sim, [RECORD_CPU_COST] * remaining)

    proc = yield from _rebuild_process(os, ctx, name, fd=fd)
    if start:
        proc.start()
    return proc


def cr_restore_context(
    os: OSInstance,
    ctx: ProcessContext,
    name: Optional[str] = None,
    start: bool = True,
):
    """Sub-generator: rebuild a process from an in-memory context.

    The restore path for memory-tier hits: no descriptor reads (the image is
    already resident), but fork+exec, region mapping and the kernel page-walk
    cost over the image bytes are still charged — restoring a big process
    onto a loaded card can still fail with MemoryExhausted.
    """
    yield from sleep_through(os.sim, [RECORD_CPU_COST] * ctx.n_small_records)

    proc = yield from _rebuild_process(os, ctx, name, fd=None)
    if start:
        proc.start()
    return proc
