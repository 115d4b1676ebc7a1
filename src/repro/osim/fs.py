"""Simulated file systems.

Files carry a *modeled size* (drives simulated I/O time and memory
accounting) and an optional *payload* (a real Python object used for
correctness assertions — e.g. a checkpoint context whose records must
round-trip). Two concrete file systems exist:

* :class:`HostFileSystem` — backed by the node's disk + page cache.
* :class:`RamFileSystem` — the Xeon Phi's RAM-disk root: every byte written
  is charged against the card's physical memory, which is the capacity
  pressure at the heart of the paper's storage problem.
"""

from __future__ import annotations

import posixpath
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from ..sim.errors import SimError
from ..hw.memory import PhysicalMemory
from ..hw.storage import HostDisk

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.kernel import Simulator


class FSError(SimError):
    """File-system level failure (missing path, etc.)."""


class File:
    """Metadata + payload for one simulated file."""

    __slots__ = ("path", "size", "payload", "in_page_cache")

    def __init__(self, path: str, size: int = 0, payload: Any = None):
        self.path = path
        self.size = size
        self.payload = payload
        self.in_page_cache = False

    def __repr__(self) -> str:  # pragma: no cover
        return f"<File {self.path} {self.size}B>"


class FileSystem:
    """Base: a flat namespace of POSIX-ish paths with timed operations.

    ``write``/``read`` are sub-generators so they charge simulated time;
    metadata operations (exists/stat/unlink) are instantaneous, matching
    their negligible real cost relative to data movement.
    """

    def __init__(self, sim: "Simulator", name: str = "fs"):
        self.sim = sim
        self.name = name
        self._files: Dict[str, File] = {}

    # -- namespace ----------------------------------------------------------
    @staticmethod
    def _norm(path: str) -> str:
        if not path.startswith("/"):
            raise FSError(f"paths must be absolute: {path!r}")
        return posixpath.normpath(path)

    def exists(self, path: str) -> bool:
        return self._norm(path) in self._files

    def stat(self, path: str) -> File:
        f = self._files.get(self._norm(path))
        if f is None:
            raise FSError(f"{self.name}: no such file {path!r}")
        return f

    def listdir(self, prefix: str) -> List[str]:
        prefix = self._norm(prefix).rstrip("/") + "/"
        return sorted(p for p in self._files if p.startswith(prefix))

    def create(self, path: str) -> File:
        path = self._norm(path)
        if path in self._files:
            # POSIX O_TRUNC semantics: recreate empty.
            self._discard(self._files[path])
        f = File(path)
        self._files[path] = f
        return f

    def unlink(self, path: str) -> None:
        path = self._norm(path)
        f = self._files.pop(path, None)
        if f is None:
            raise FSError(f"{self.name}: unlink of missing file {path!r}")
        self._discard(f)

    def rename(self, old: str, new: str) -> None:
        """Metadata-only move: the backing bytes stay where they are (same
        file system), so no I/O time is charged and no memory accounting
        changes. An existing target is replaced, per POSIX rename."""
        old = self._norm(old)
        new = self._norm(new)
        f = self._files.pop(old, None)
        if f is None:
            raise FSError(f"{self.name}: rename of missing file {old!r}")
        existing = self._files.get(new)
        if existing is not None:
            self._discard(existing)
        f.path = new
        self._files[new] = f

    def total_bytes(self) -> int:
        return sum(f.size for f in self._files.values())

    # -- data plane (overridden) ---------------------------------------------
    def _discard(self, f: File) -> None:
        """Release whatever backs the file's bytes."""

    def write(self, path: str, nbytes: int, payload: Any = None, sync: bool = False):
        """Sub-generator: append ``nbytes`` to ``path`` (creating it)."""
        raise NotImplementedError

    def read(self, path: str, nbytes: Optional[int] = None):
        """Sub-generator: read ``nbytes`` (default: whole file); returns payload."""
        raise NotImplementedError

    def _get_or_create(self, path: str) -> File:
        path = self._norm(path)
        f = self._files.get(path)
        if f is None:
            f = File(path)
            self._files[path] = f
        return f


class HostFileSystem(FileSystem):
    """The host's disk-backed file system (with page cache)."""

    def __init__(self, sim: "Simulator", disk: HostDisk, name: str = "hostfs"):
        super().__init__(sim, name)
        self.disk = disk

    def write(self, path: str, nbytes: int, payload: Any = None, sync: bool = False):
        f = self._get_or_create(path)
        yield from self.disk.write(nbytes, sync=sync)
        f.size += nbytes
        if payload is not None:
            f.payload = payload
        f.in_page_cache = True

    def read(self, path: str, nbytes: Optional[int] = None):
        f = self.stat(path)
        n = f.size if nbytes is None else min(nbytes, f.size)
        yield from self.disk.read(n, cached=f.in_page_cache)
        f.in_page_cache = True
        return f.payload

    def fsync(self, path: str):
        self.stat(path)  # must exist
        yield from self.disk.fsync()

    def drop_caches(self) -> None:
        """Evict the page cache (echo 3 > drop_caches): restart-after-failure
        benchmarks read their snapshots cold."""
        for f in self._files.values():
            f.in_page_cache = False


class RamFileSystem(FileSystem):
    """The Xeon Phi's RAM-disk: file bytes are physical card memory."""

    def __init__(
        self,
        sim: "Simulator",
        memory: PhysicalMemory,
        write_factor: float = 1.3,
        name: str = "ramfs",
    ):
        super().__init__(sim, name)
        self.memory = memory
        self.write_factor = write_factor

    def _discard(self, f: File) -> None:
        if f.size:
            self.memory.free(f.size, "ramfs")

    def write(self, path: str, nbytes: int, payload: Any = None, sync: bool = False):
        f = self._get_or_create(path)
        # Allocation can raise MemoryExhausted: local snapshots of large
        # processes genuinely cannot fit (Table 4 'Local' at 4 GB).
        self.memory.allocate(nbytes, "ramfs")
        try:
            yield self.sim.sleep(self.memory.memcpy_time(nbytes) * self.write_factor)
        except BaseException:
            # Torn write: the writer died (card failure kills its thread
            # mid-copy) — roll the charge back so the pool matches the
            # files that actually exist. Thread.kill() closes the
            # generator synchronously, so this runs deterministically.
            self.memory.free(nbytes, "ramfs")
            raise
        if self._files.get(f.path) is not f:
            # Unlinked (or truncated by a create) mid-write: the bytes land
            # in no file, so they go back to the pool.
            self.memory.free(nbytes, "ramfs")
            return
        f.size += nbytes
        if payload is not None:
            f.payload = payload

    def read(self, path: str, nbytes: Optional[int] = None):
        f = self.stat(path)
        n = f.size if nbytes is None else min(nbytes, f.size)
        yield self.sim.sleep(self.memory.memcpy_time(n))
        return f.payload
