"""Host secondary storage: a disk behind a write-back page cache.

The asynchronous flush matters for fidelity: the paper observes that
Snapify-IO writes (Phi -> host) outrun reads because the host-side daemon
"flushes the file to the secondary storage asynchronously. Thus the write
operation on the host runs parallel to the data transfer." We model a
dirty-byte pool drained by a background flusher thread; writers only block
when the dirty limit is hit, and ``fsync`` waits for a full drain.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from ..obs.registry import MetricsRegistry
from ..sim.events import Event
from .params import DiskParams, MB

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.kernel import Simulator

_FLUSH_CHUNK = 16 * MB


class HostDisk:
    """Disk with page-cache semantics.

    ``write(nbytes)`` is absorbed at memory-copy speed until the dirty limit
    is reached, after which writers throttle to disk speed. ``read`` hits
    either the cache (memcpy speed) or the platter.
    """

    def __init__(
        self,
        sim: "Simulator",
        params: DiskParams,
        memcpy_bw: float,
        name: str = "disk",
    ):
        self.sim = sim
        self.params = params
        self.memcpy_bw = memcpy_bw
        self.name = name
        self.dirty = 0
        self.bytes_written = 0
        self.bytes_read = 0
        self._flusher_started = False
        self._work_available: Event = sim.event(f"{name}.work")
        self._drain_waiters: List[Event] = []
        reg = MetricsRegistry.of(sim)
        reg.gauge(f"disk.{name}.dirty", lambda: self.dirty)
        reg.gauge(f"disk.{name}.queue_depth", lambda: len(self._drain_waiters))
        reg.gauge(f"disk.{name}.bytes_written", lambda: self.bytes_written)
        reg.gauge(f"disk.{name}.bytes_read", lambda: self.bytes_read)

    # -- background flusher ----------------------------------------------------
    def _ensure_flusher(self) -> None:
        if self._flusher_started:
            return
        self._flusher_started = True
        self.sim.spawn(self._flusher(), name=f"{self.name}.flusher", daemon=True)

    def _flusher(self):
        while True:
            if self.dirty == 0:
                self._work_available = self.sim.event(f"{self.name}.work")
                yield self._work_available
                continue
            chunk = min(self.dirty, _FLUSH_CHUNK)
            yield self.sim.sleep(self.params.op_latency + chunk / self.params.write_bw)
            self.dirty -= chunk
            self._wake_drain_waiters()

    def _wake_drain_waiters(self) -> None:
        still_waiting: List[Event] = []
        for ev in self._drain_waiters:
            if ev.triggered:
                continue
            ev.succeed(None)
        self._drain_waiters = still_waiting

    def _kick(self) -> None:
        if not self._work_available.triggered:
            self._work_available.succeed(None)

    # -- I/O operations ----------------------------------------------------------
    def write(self, nbytes: int, sync: bool = False):
        """Sub-generator: write ``nbytes`` (async by default).

        Synchronous writes (O_SYNC / kernel direct writes) bypass the cache
        and pace at platter speed; they do NOT wait for other writers' dirty
        data (separate request streams on the same device).
        """
        if nbytes < 0:
            raise ValueError("negative write")
        self._ensure_flusher()
        if sync:
            yield self.sim.sleep(self.params.op_latency + nbytes / self.params.write_bw)
            self.bytes_written += nbytes
            return
        remaining = nbytes
        while remaining > 0:
            room = self.params.dirty_limit - self.dirty
            if room <= 0:
                # Throttled: wait for the flusher to free cache space.
                ev = self.sim.event(f"{self.name}.drain")
                self._drain_waiters.append(ev)
                yield ev
                continue
            take = min(remaining, room)
            yield self.sim.sleep(take / self.memcpy_bw)
            self.dirty += take
            self.bytes_written += take
            remaining -= take
            self._kick()

    def fsync(self):
        """Sub-generator: block until all dirty data reaches the platter."""
        self._ensure_flusher()
        while self.dirty > 0:
            ev = self.sim.event(f"{self.name}.fsync")
            self._drain_waiters.append(ev)
            yield ev

    def read(self, nbytes: int, cached: bool = False):
        """Sub-generator: read ``nbytes`` from cache or platter."""
        if nbytes < 0:
            raise ValueError("negative read")
        if cached:
            yield self.sim.sleep(nbytes / self.memcpy_bw)
        else:
            yield self.sim.sleep(self.params.op_latency + nbytes / self.params.read_bw)
        self.bytes_read += nbytes
