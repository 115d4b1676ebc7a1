"""NFS over the PCIe virtual network: the baseline Snapify-IO displaces.

Two access modes matter for Table 4:

* **Synchronous per-call RPCs** — how BLCR's kernel-side writes hit the
  mount: every ``write()`` costs at least one RPC round trip. This is why
  BLCR's burst of small metadata records murders plain NFS.
* **Write-back client caching** — how ordinary user file copies behave
  (Table 3's 1 MB case, where NFS beats everything by absorbing the file
  into the client cache).

The paper's two fixes are modeled as buffered descriptors:
:class:`NFSKernelBufferedFD` (BLCR kernel-module coalescing) and
:class:`NFSUserBufferedFD` (user-space redirection through stdin/stdout,
which pays an extra copy per byte and a pipe hop per record).
"""

from __future__ import annotations

from typing import Any, List, Optional

from ..hw.params import NFSParams
from ..osim.fd import FDError, FileDescriptor
from ..osim.fs import FileSystem, HostFileSystem
from ..osim.process import OSInstance


class NFSMount(FileSystem):
    """The host file system mounted on a card over NFS.

    The namespace *is* the host file system's (files written here are
    visible to host-side tools and vice versa); only the access costs
    differ. ``sync_writes`` selects the BLCR-style per-call RPC mode.
    """

    def __init__(
        self,
        phi_os: OSInstance,
        host_fs: HostFileSystem,
        params: NFSParams,
        sync_writes: bool = False,
    ):
        super().__init__(phi_os.sim, "nfs")
        self.phi_os = phi_os
        self.host_fs = host_fs
        self.params = params
        self.sync_writes = sync_writes
        self._cached_bytes = 0  # client write-back cache occupancy
        self._readahead: dict = {}  # path -> bytes already fetched
        self.rpc_count = 0

    # Namespace operations delegate to the host FS.
    def exists(self, path: str) -> bool:
        return self.host_fs.exists(path)

    def stat(self, path: str):
        return self.host_fs.stat(path)

    def listdir(self, prefix: str):
        return self.host_fs.listdir(prefix)

    def create(self, path: str):
        return self.host_fs.create(path)

    def unlink(self, path: str) -> None:
        self.host_fs.unlink(path)

    def _rpc_time(self, nbytes: int, bw: float) -> float:
        """Serial synchronous RPCs: latency + wire time per rpc_size slice."""
        n_rpcs = max(1, -(-nbytes // self.params.rpc_size))
        self.rpc_count += n_rpcs
        return n_rpcs * self.params.op_latency + nbytes / bw

    def _check_available(self) -> None:
        """NFS rides the PCIe virtual ethernet and a host-side export: a
        downed link or a stopped export makes every RPC time out (modeled as
        an immediate error — the client would see ``server not responding``).
        """
        if self.phi_os.hw.link_down:
            raise FDError(f"{self.name}: PCIe link down — server not responding")
        if not getattr(self.host_fs, "exported", True):
            raise FDError(f"{self.name}: export stopped — server not responding")

    def write(self, path: str, nbytes: int, payload: Any = None, sync: bool = False):
        self._check_available()
        sync = sync or self.sync_writes
        if sync:
            yield self.sim.sleep(self._rpc_time(nbytes, self.params.write_bw))
        else:
            # Write-back: absorb into the client cache while it has room.
            room = max(0, self.params.client_cache - self._cached_bytes)
            absorbed = min(nbytes, room)
            spilled = nbytes - absorbed
            self._cached_bytes += absorbed
            if absorbed:
                yield self.sim.sleep(
                    absorbed / self.phi_os.memory.params.memcpy_bw
                )
            if spilled:
                yield self.sim.sleep(self._rpc_time(spilled, self.params.write_bw))
        # Server-side: land in the host page cache (flushed asynchronously).
        yield from self.host_fs.write(path, nbytes, payload=payload)

    #: Client-side CPU cost of any read call served from the readahead buffer.
    READ_CALL_COST = 100e-6

    def read(self, path: str, nbytes: Optional[int] = None):
        """Readahead-aware read: sequential small reads are served from the
        client's readahead buffer; each ``rpc_size`` window is fetched once.
        BLCR's metadata-record reads therefore cost far less than one RPC
        each — but far more than the zero Snapify-IO pays (its daemon pushes
        the whole stream proactively)."""
        self._check_available()
        f = self.host_fs.stat(path)
        n = f.size if nbytes is None else min(nbytes, f.size)
        pos = self._readahead.get(path, 0)
        end = pos + n
        fetched = self._readahead.get((path, "fetched"), 0)
        cost = self.READ_CALL_COST
        while fetched < end:
            fetched += self.params.rpc_size
            self.rpc_count += 1
            cost += self.params.op_latency + min(self.params.rpc_size, f.size) / self.params.read_bw
        self._readahead[path] = end if end < f.size else 0  # rewind at EOF
        self._readahead[(path, "fetched")] = fetched if end < f.size else 0
        yield self.sim.sleep(cost)
        return f.payload


class NFSKernelBufferedFD(FileDescriptor):
    """The paper's modified-BLCR-kernel-module fix: accumulate writes into
    large chunks before they hit the wire. Restores Table 4's
    'NFS-Buffered in kernel' row."""

    CHUNK = 1024 * 1024

    def __init__(self, mount: NFSMount, path: str):
        super().__init__(mount.sim, name=f"nfs-kbuf:{path}")
        self.mount = mount
        self.path = path
        self._pending = 0
        self._records: List[Any] = []
        mount.create(path)

    def write(self, nbytes: int, record: Any = None):
        self._check_open()
        if record is not None:
            self._records.append(record)
        self._pending += nbytes
        while self._pending >= self.CHUNK:
            yield from self.mount.write(self.path, self.CHUNK, sync=True)
            self._pending -= self.CHUNK
        self.bytes_written += nbytes

    def flush(self):
        """Sub-generator: push out the final partial chunk."""
        if self._pending:
            yield from self.mount.write(self.path, self._pending, sync=True)
            self._pending = 0
        self.mount.stat(self.path).payload = list(self._records)

    def read(self, nbytes: int):  # pragma: no cover - write-only helper
        raise FDError(f"{self.name}: kernel-buffered FD is write-only")

    def close(self) -> None:
        super().close()


class NFSUserBufferedFD(NFSKernelBufferedFD):
    """The user-space variant: BLCR's writes are redirected through a
    buffering utility via stdout/stdin. Same coalescing idea, but every byte
    pays an extra user-space copy and every record a pipe hop — which is why
    it helps 'to a lesser degree' than the kernel fix."""

    PIPE_HOP = 25e-6
    #: Fraction of the extra user-space copy NOT hidden behind the wire
    #: (the utility runs as a separate process, pipelined with the writes).
    RESIDUAL_COPY = 0.05

    def write(self, nbytes: int, record: Any = None):
        # Extra hop through the utility's stdin, mostly overlapped.
        yield self.sim.sleep(
            self.PIPE_HOP
            + self.RESIDUAL_COPY * nbytes / self.mount.phi_os.memory.params.memcpy_bw
        )
        yield from super().write(nbytes, record)
