"""BLCR context files.

A context file is the serialized image of one process: a burst of small
metadata records (credentials, fd table, per-thread register/signal state)
followed by the bulk memory pages. The *write pattern* is modeled faithfully
because it drives Table 4: "BLCR performs multiple small writes before
reaching the loop where it actually takes snapshots of the application's
memory pages, and these small writes lead to poor performance for the NFS
variants."
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from ..osim.process import MemoryRegion, SimProcess

if TYPE_CHECKING:  # pragma: no cover
    from .plugins import PluginImage, PluginRegistry

#: Size of one metadata record.
SMALL_RECORD = 256
#: Fixed number of prologue records (header, creds, mm layout, fd table...).
BASE_SMALL_RECORDS = 48
#: Metadata records per thread (registers, signal mask, FPU state...).
RECORDS_PER_THREAD = 4
#: Bulk pages are written in chunks of this size.
BULK_CHUNK = 4 * 1024 * 1024
#: CPU cost of assembling one record (kernel-side copy bookkeeping).
RECORD_CPU_COST = 4e-6


@dataclass
class RegionImage:
    """Serialized form of one memory region."""

    name: str
    size: int
    kind: str
    pinned: bool
    data: Any = None

    @staticmethod
    def from_region(region: MemoryRegion) -> "RegionImage":
        return RegionImage(
            name=region.name,
            size=region.size,
            kind=region.kind,
            pinned=region.pinned,
            data=copy.deepcopy(region.data),
        )


@dataclass
class ProcessContext:
    """Everything needed to rebuild a process on (possibly another) OS.

    ``main_factory`` stands in for the executable: restart re-invokes it
    against the restored ``store``, and resumable programs keep their
    progress (iteration counters, phase tags) in the store.
    """

    name: str
    nthreads: int
    store: Dict[str, Any]
    regions: List[RegionImage]
    main_factory: Optional[Callable] = None
    #: Ordered images from the registered checkpoint plugins (sockets,
    #: RAM-FS files, signals, RDMA windows, ...). Empty with the default
    #: registry.
    plugin_images: List["PluginImage"] = field(default_factory=list)

    @property
    def image_bytes(self) -> int:
        """Total serialized size: metadata records + memory pages."""
        return self.metadata_bytes + self.bulk_bytes

    @property
    def metadata_bytes(self) -> int:
        return self.n_small_records * SMALL_RECORD

    @property
    def n_small_records(self) -> int:
        return (
            BASE_SMALL_RECORDS
            + RECORDS_PER_THREAD * self.nthreads
            + len(self.regions)
            + sum(image.records for image in self.plugin_images)
        )

    @property
    def bulk_bytes(self) -> int:
        return sum(r.size for r in self.regions) + sum(
            image.bulk_bytes for image in self.plugin_images
        )

    def plugin_payload(self, name: str) -> Optional[Any]:
        """The payload of the named plugin's image, or ``None``."""
        for image in self.plugin_images:
            if image.plugin == name:
                return image.payload
        return None

    def write_plan(self) -> List[Tuple[int, Optional[Any]]]:
        """The (nbytes, record) sequence BLCR pushes through the descriptor.

        The final record carries the context object itself so a reader can
        reconstruct the process; earlier records model the write pattern.
        """
        plan: List[Tuple[int, Optional[Any]]] = []
        for _ in range(self.n_small_records - 1):
            plan.append((SMALL_RECORD, None))
        plan.append((SMALL_RECORD, self))
        for region in self.regions:
            remaining = region.size
            while remaining > 0:
                chunk = min(remaining, BULK_CHUNK)
                plan.append((chunk, None))
                remaining -= chunk
        # Plugin bulk payloads stream after the region pages, in image order
        # (the restore side mirrors this layout).
        for image in self.plugin_images:
            remaining = image.bulk_bytes
            while remaining > 0:
                chunk = min(remaining, BULK_CHUNK)
                plan.append((chunk, None))
                remaining -= chunk
        return plan

    @staticmethod
    def capture(
        proc: SimProcess, registry: Optional["PluginRegistry"] = None
    ) -> "ProcessContext":
        """Freeze a live process into a context (instantaneous state copy).

        The core image — memory regions and the store — is copied here;
        each registered plugin's ``pre_checkpoint`` freezes one extra
        resource into ``plugin_images``.

        The caller is responsible for quiescence: Snapify guarantees it via
        the pause protocol, native benchmarks via their own structure. The
        copy itself is atomic at the simulated instant it is taken.
        """
        from .plugins import PluginRegistry

        if registry is None:
            registry = PluginRegistry.for_process(proc)
        return ProcessContext(
            name=proc.name,
            nthreads=max(1, len(proc.threads)),
            regions=[RegionImage.from_region(r) for r in proc.regions.values()],
            store=copy.deepcopy(proc.store),
            main_factory=proc.main_factory,
            plugin_images=registry.capture(proc),
        )
