"""File descriptors: the transport abstraction checkpoint tools write through.

BLCR (see :mod:`repro.blcr`) serializes a process context as a stream of
records pushed through *any* FileDescriptor. This is exactly the integration
point the paper exploits: "the file descriptor created by Snapify-IO can be
directly passed to BLCR for saving and retrieving snapshots." Concrete FDs:

* :class:`RegularFileFD` — a file on a local file system.
* pipe/socket FDs in :mod:`repro.osim.pipes` / :mod:`repro.osim.sockets`.
* the Snapify-IO client FD in :mod:`repro.snapify_io.library`.

Each ``write(nbytes, record)`` charges the transport's simulated cost and
carries an optional real payload record; ``read(nbytes)`` returns the next
record. Record boundaries are preserved (datagram-style), which models
BLCR's self-delimiting context format without byte-level bookkeeping.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Sequence, Tuple

from ..sim.errors import SimError
from ..sim.events import NameParts, spell, split
from .fs import FileSystem

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.kernel import Simulator


class FDError(SimError):
    """Misuse of a file descriptor (closed, wrong mode, exhausted)."""


class FileDescriptor:
    """Abstract record-stream descriptor. ``name`` is the name or
    ``(fmt, arg)``, spelled when read."""

    def __init__(self, sim: "Simulator", name: NameParts = "fd"):
        self.sim = sim
        self._name, self._arg = split(name)
        self.closed = False
        self.bytes_written = 0
        self.bytes_read = 0

    @property
    def name(self) -> str:
        return spell(self._name, self._arg)

    def _check_open(self) -> None:
        if self.closed:
            raise FDError(f"{self.name}: I/O on closed descriptor")

    def write(self, nbytes: int, record: Any = None):
        """Sub-generator: write ``nbytes`` carrying optional ``record``."""
        raise NotImplementedError

    def read(self, nbytes: int):
        """Sub-generator: read ``nbytes``; returns the next record."""
        raise NotImplementedError

    def write_records(self, plan: Sequence[Tuple[int, Any]], record_cost: float,
                      per_byte: float):
        """Sub-generator: write a checkpointer's record stream.

        Each ``(nbytes, record)`` of ``plan`` costs ``record_cost + per_byte
        * nbytes`` of CPU, then one :meth:`write`. A transport whose stream
        nothing else observes may charge a run of records in one wait, as
        long as every record keeps this cost bit for bit (see
        :class:`~repro.snapify_io.library.SnapifyIOFile`).
        """
        sim = self.sim
        for nbytes, record in plan:
            yield sim.sleep(record_cost + per_byte * nbytes)
            yield from self.write(nbytes, record)

    @property
    def exhausted(self) -> bool:
        """True when every further read returns None at once and charges
        nothing, so a reader may skip them. Never, unless the transport
        says so."""
        return False

    def close(self) -> None:
        """Release resources. Plain method: closing never blocks; transports
        needing a handshake (e.g. Snapify-IO) expose an explicit drain event."""
        self.closed = True


class RegularFileFD(FileDescriptor):
    """Descriptor over a file in a simulated file system.

    Write mode truncates (O_WRONLY|O_CREAT|O_TRUNC); read mode iterates the
    file's stored records sequentially.
    """

    def __init__(self, sim: "Simulator", fs: FileSystem, path: str, mode: str,
                 sync: bool = False):
        super().__init__(sim, name=f"file:{path}")
        if mode not in ("r", "w"):
            raise ValueError(f"mode must be 'r' or 'w', got {mode!r}")
        self.fs = fs
        self.path = path
        self.mode = mode
        #: Synchronous writes (O_SYNC-ish): every write waits for the media.
        #: Host-side BLCR context writes behave this way in practice.
        self.sync = sync
        self._records: List[Any] = []
        self._read_cursor = 0
        if mode == "w":
            fs.create(path)
        else:
            f = fs.stat(path)
            self._records = list(f.payload) if isinstance(f.payload, list) else (
                [] if f.payload is None else [f.payload]
            )

    def write(self, nbytes: int, record: Any = None):
        self._check_open()
        if self.mode != "w":
            raise FDError(f"{self.name}: write on read-only descriptor")
        yield from self.fs.write(self.path, nbytes, sync=self.sync)
        if record is not None:
            self._records.append(record)
        self.bytes_written += nbytes

    def read(self, nbytes: int):
        self._check_open()
        if self.mode != "r":
            raise FDError(f"{self.name}: read on write-only descriptor")
        result = yield from self.fs.read(self.path, nbytes)  # noqa: F841 - charge time
        self.bytes_read += nbytes
        if self._read_cursor < len(self._records):
            rec = self._records[self._read_cursor]
            self._read_cursor += 1
            return rec
        return None

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        if self.mode == "w":
            # Persist the record stream as the file payload.
            self.fs.stat(self.path).payload = self._records
