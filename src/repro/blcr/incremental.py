"""Incremental checkpoint images: base + delta chains.

Epoch 0 of a snapshot id captures a full :class:`ProcessContext` (the
*base*); later epochs harvest each region's dirty bitmap into a
:class:`RegionDelta` and ship only those pages. Every image carries a CRC
over its payload and the per-page version map of the pages it ships;
:func:`reassemble` replays base + deltas, overlays the version maps, and
verifies the result against the fingerprint recorded at capture time — so a
page the bitmap missed (stale version left behind) or a corrupted image
(CRC mismatch) fails loudly instead of restoring silently-wrong state.

Epoch counters are keyed by snapshot id in ``proc.runtime["snapify_epochs"]``:
two interleaved snapshot chains of the same process advance independently.
"""

from __future__ import annotations

import copy
import hashlib
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..osim.process import SimProcess
from ..sim.errors import SimError
from .context import (
    BASE_SMALL_RECORDS,
    BULK_CHUNK,
    RECORDS_PER_THREAD,
    SMALL_RECORD,
    ProcessContext,
    RegionImage,
)
from .dirty import PAGE_SIZE
from .plugins import PluginImage, PluginRegistry

#: runtime[] key holding per-snapshot-id epoch counters.
EPOCHS_KEY = "snapify_epochs"


class ChainError(SimError):
    """Incremental chain cannot be (safely) reassembled."""


def _stable(obj: Any) -> str:
    """Deterministic textual form of checkpointable state.

    Primitives render exactly; containers render sorted/ordered; anything
    else renders as its type name (its correctness is covered by the page
    version map, not by value comparison).
    """
    if obj is None or isinstance(obj, (bool, int, float, str, bytes, bytearray)):
        return repr(obj)
    if isinstance(obj, dict):
        items = sorted(((repr(k), _stable(v)) for k, v in obj.items()))
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_stable(x) for x in obj) + "]"
    if isinstance(obj, (set, frozenset)):
        return "{" + ",".join(sorted(_stable(x) for x in obj)) + "}"
    if callable(obj):
        return f"<fn {getattr(obj, '__qualname__', type(obj).__name__)}>"
    return f"<{type(obj).__name__}>"


def _fingerprint(
    regions: List[Tuple[str, int, str, bool, Any]],
    versions: Dict[str, Dict[int, int]],
    store: Dict[str, Any],
) -> str:
    h = hashlib.sha256()
    for name, size, kind, pinned, data in sorted(regions):
        h.update(f"R|{name}|{size}|{kind}|{int(pinned)}|{_stable(data)}|".encode())
        vmap = versions.get(name, {})
        h.update(",".join(f"{p}:{v}" for p, v in sorted(vmap.items())).encode())
        h.update(b";")
    h.update(b"S|")
    h.update(_stable(store).encode())
    return h.hexdigest()


def state_fingerprint(proc: SimProcess) -> str:
    """Fingerprint of a live process's checkpointable state *right now*.

    Exactly what a full capture at this instant would hash to — recorded
    into each image as ``expected`` so chain reassembly can be compared
    against ground truth.
    """
    regions = [
        (r.name, r.size, r.kind, r.pinned, r.data) for r in proc.regions.values()
    ]
    versions = {
        r.name: (r.tracker.all_versions() if r.tracker is not None else {})
        for r in proc.regions.values()
    }
    return _fingerprint(regions, versions, proc.store)


@dataclass
class RegionDelta:
    """Dirty pages of one region at one epoch."""

    name: str
    size: int
    kind: str
    pinned: bool
    #: Sorted dirty page indices shipped by this delta.
    pages: List[int]
    #: Version of each shipped page at capture time.
    versions: Dict[int, int]
    #: Region payload (the ledger keeps the full object; the *modeled*
    #: byte cost is page-granular — see ``delta_bytes``).
    data: Any = None

    @property
    def delta_bytes(self) -> int:
        """Modeled bytes this delta ships (partial last page exact)."""
        if not self.pages:
            return 0
        n_pages = (self.size + PAGE_SIZE - 1) // PAGE_SIZE
        last_page = n_pages - 1
        tail = self.size - last_page * PAGE_SIZE  # bytes in the last page
        return sum(tail if p == last_page else PAGE_SIZE for p in self.pages)


@dataclass
class DeltaImage:
    """One link of an incremental chain: the base (epoch 0) or a delta."""

    snapshot_id: str
    epoch: int
    kind: str  # "base" | "delta"
    nthreads: int
    store: Dict[str, Any]
    main_factory: Optional[Callable] = None
    #: Full context — present on the base image only.
    base: Optional[ProcessContext] = None
    #: region name -> page versions at capture time (base image only).
    base_versions: Dict[str, Dict[int, int]] = field(default_factory=dict)
    #: Dirty-page payloads (delta images only).
    deltas: List[RegionDelta] = field(default_factory=list)
    #: Plugin images frozen at this link's capture instant (sockets, RAM-FS
    #: files, signals, RDMA windows, ...). Empty with the default registry.
    plugin_images: List[PluginImage] = field(default_factory=list)
    #: Fingerprint of the live process at capture time (ground truth).
    expected: str = ""
    #: Size of the full image this link logically represents.
    logical_bytes: int = 0
    #: Bytes this link actually ships (== logical_bytes for the base).
    delta_bytes: int = 0
    #: CRC32 over the payload, fixed at capture time.
    crc: int = 0

    def payload_crc(self) -> int:
        h = zlib.crc32(f"{self.snapshot_id}|{self.epoch}|{self.kind}|{self.nthreads}|".encode())
        h = zlib.crc32(_stable(self.store).encode(), h)
        if self.base is not None:
            for r in self.base.regions:
                h = zlib.crc32(
                    f"B|{r.name}|{r.size}|{r.kind}|{int(r.pinned)}|{_stable(r.data)}".encode(), h
                )
            for name, vmap in sorted(self.base_versions.items()):
                h = zlib.crc32(
                    f"V|{name}|{','.join(f'{p}:{v}' for p, v in sorted(vmap.items()))}".encode(), h
                )
        for d in self.deltas:
            h = zlib.crc32(
                f"D|{d.name}|{d.size}|{d.kind}|{int(d.pinned)}|{d.pages}|"
                f"{sorted(d.versions.items())}|{_stable(d.data)}".encode(),
                h,
            )
        for pi in self.plugin_images:
            h = zlib.crc32(
                f"P|{pi.plugin}|{pi.records}|{pi.bulk_bytes}|{_stable(pi.payload)}".encode(),
                h,
            )
        h = zlib.crc32(f"E|{self.expected}".encode(), h)
        return h & 0xFFFFFFFF

    def seal(self) -> "DeltaImage":
        self.crc = self.payload_crc()
        return self

    def verify_crc(self) -> None:
        actual = self.payload_crc()
        if actual != self.crc:
            raise ChainError(
                f"{self.snapshot_id} epoch {self.epoch}: CRC mismatch "
                f"(stored {self.crc:#010x}, computed {actual:#010x})"
            )

    # -- serialization cost model ------------------------------------------
    @property
    def n_small_records(self) -> int:
        if self.base is not None:
            # The base context already accounts for its own plugin images.
            return self.base.n_small_records
        return (
            BASE_SMALL_RECORDS
            + RECORDS_PER_THREAD * self.nthreads
            + len(self.deltas)
            + sum(pi.records for pi in self.plugin_images)
        )

    @property
    def metadata_bytes(self) -> int:
        return self.n_small_records * SMALL_RECORD

    def write_plan(self) -> List[Tuple[int, Optional[Any]]]:
        """(nbytes, record) sequence for streaming this image to a file.

        Mirrors :meth:`ProcessContext.write_plan`: a burst of small metadata
        records (the last carrying the image object) followed by bulk chunks
        sized by the bytes this link actually ships.
        """
        plan: List[Tuple[int, Optional[Any]]] = []
        for _ in range(self.n_small_records - 1):
            plan.append((SMALL_RECORD, None))
        plan.append((SMALL_RECORD, self))
        if self.base is not None:
            bulk = self.base.bulk_bytes  # already includes plugin bulk bytes
        else:
            bulk = sum(d.delta_bytes for d in self.deltas) + sum(
                pi.bulk_bytes for pi in self.plugin_images
            )
        remaining = bulk
        while remaining > 0:
            chunk = min(remaining, BULK_CHUNK)
            plan.append((chunk, None))
            remaining -= chunk
        return plan


def capture_incremental(proc: SimProcess, snapshot_id: str) -> DeltaImage:
    """Instantaneous incremental capture of ``proc`` for ``snapshot_id``.

    Epoch 0 (first capture under this id) produces a base image and enables
    dirty tracking; later epochs harvest dirty bitmaps into deltas. Rolls
    the epoch: bitmaps are cleared and the snapshot-id counter advances.
    Pure state copy — the caller charges simulated time from the write plan.
    """
    if not proc.alive:
        raise ChainError(f"cannot capture dead process {proc.name}")
    epochs: Dict[str, int] = proc.runtime.setdefault(EPOCHS_KEY, {})
    epoch = epochs.get(snapshot_id, 0)
    if epoch == 0:
        proc.enable_dirty_tracking()
        base = ProcessContext.capture(proc)
        base_versions = {
            r.name: (r.tracker.all_versions() if r.tracker is not None else {})
            for r in proc.regions.values()
        }
        image = DeltaImage(
            snapshot_id=snapshot_id,
            epoch=0,
            kind="base",
            nthreads=base.nthreads,
            store=copy.deepcopy(proc.store),
            main_factory=proc.main_factory,
            base=base,
            base_versions=base_versions,
            plugin_images=list(base.plugin_images),
            logical_bytes=base.image_bytes,
            delta_bytes=base.image_bytes,
        )
    else:
        deltas: List[RegionDelta] = []
        for region in proc.regions.values():
            tracker = region.tracker
            if tracker is None:
                # Region mapped while tracking was off (shouldn't happen once
                # enabled, but stay safe): ship it whole.
                region.enable_tracking()
                tracker = region.tracker
                tracker.bitmap.mark_all()
            pages = tracker.bitmap.dirty_pages
            if not pages:
                continue
            deltas.append(
                RegionDelta(
                    name=region.name,
                    size=region.size,
                    kind=region.kind,
                    pinned=region.pinned,
                    pages=pages,
                    versions=tracker.versions_for(pages),
                    data=copy.deepcopy(region.data),
                )
            )
        nthreads = max(1, len(proc.threads))
        # Plugin resources have no dirty bitmap: every delta re-freezes them
        # whole (they are metadata-sized next to memory pages).
        plugin_images = PluginRegistry.of(proc.os).capture(proc)
        n_small = (
            BASE_SMALL_RECORDS
            + RECORDS_PER_THREAD * nthreads
            + len(proc.regions)
            + sum(pi.records for pi in plugin_images)
        )
        logical = (
            n_small * SMALL_RECORD
            + sum(r.size for r in proc.regions.values())
            + sum(pi.bulk_bytes for pi in plugin_images)
        )
        image = DeltaImage(
            snapshot_id=snapshot_id,
            epoch=epoch,
            kind="delta",
            nthreads=nthreads,
            store=copy.deepcopy(proc.store),
            main_factory=proc.main_factory,
            deltas=deltas,
            plugin_images=plugin_images,
            logical_bytes=logical,
        )
        image.delta_bytes = (
            image.metadata_bytes
            + sum(d.delta_bytes for d in deltas)
            + sum(pi.bulk_bytes for pi in plugin_images)
        )
    image.expected = state_fingerprint(proc)
    image.seal()
    for region in proc.regions.values():
        if region.tracker is not None:
            region.tracker.roll_epoch()
    epochs[snapshot_id] = epoch + 1
    return image


def reassemble(images: List[DeltaImage], verify: bool = True) -> ProcessContext:
    """Replay a base + delta chain into a restorable :class:`ProcessContext`.

    Verifies every link's CRC, epoch continuity (0, 1, 2, ... with a single
    snapshot id), and — when ``verify`` — that the overlaid page-version map
    and region/store state hash to the fingerprint recorded at capture time
    of the last link. Raises :class:`ChainError` on any mismatch.
    """
    if not images:
        raise ChainError("empty incremental chain")
    head = images[0]
    if head.kind != "base" or head.base is None:
        raise ChainError(f"chain must start with a base image, got epoch {head.epoch} {head.kind!r}")
    sid = head.snapshot_id
    for i, img in enumerate(images):
        if img.snapshot_id != sid:
            raise ChainError(f"mixed snapshot ids in chain: {sid!r} vs {img.snapshot_id!r}")
        if img.epoch != i:
            raise ChainError(f"{sid}: epoch gap — expected epoch {i}, found {img.epoch}")
        img.verify_crc()

    regions: Dict[str, RegionImage] = {}
    order: List[str] = []
    for r in head.base.regions:
        regions[r.name] = RegionImage(r.name, r.size, r.kind, r.pinned, copy.deepcopy(r.data))
        order.append(r.name)
    versions: Dict[str, Dict[int, int]] = {
        name: dict(vmap) for name, vmap in head.base_versions.items()
    }
    store = copy.deepcopy(head.store)
    nthreads = head.nthreads
    main_factory = head.main_factory
    # Plugins re-freeze whole at every link, so the newest non-empty set is
    # the restorable one (an empty set on a later link means the resources
    # were gone at that capture — e.g. all sockets closed — and wins too).
    plugin_images = list(head.plugin_images)

    for img in images[1:]:
        store = copy.deepcopy(img.store)
        nthreads = img.nthreads
        main_factory = img.main_factory or main_factory
        plugin_images = list(img.plugin_images)
        for d in img.deltas:
            if d.name not in regions:
                order.append(d.name)
            regions[d.name] = RegionImage(d.name, d.size, d.kind, d.pinned, copy.deepcopy(d.data))
            versions.setdefault(d.name, {}).update(d.versions)

    if verify:
        parts = [(ri.name, ri.size, ri.kind, ri.pinned, ri.data) for ri in regions.values()]
        got = _fingerprint(parts, versions, store)
        want = images[-1].expected
        if got != want:
            raise ChainError(
                f"{sid}: reassembled state diverges from the epoch-{images[-1].epoch} "
                f"full capture (fingerprint {got[:12]} != {want[:12]}) — "
                "a write escaped the dirty bitmap or an image is stale"
            )

    return ProcessContext(
        name=head.base.name,
        nthreads=nthreads,
        store=store,
        regions=[regions[n] for n in order],
        main_factory=main_factory,
        plugin_images=copy.deepcopy(plugin_images),
    )
