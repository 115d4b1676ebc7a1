"""Simulated operating systems and processes.

Each :class:`OSInstance` owns a physical memory pool, a file system, a UNIX
socket namespace and a process table. A :class:`SimProcess` is a group of
simulated threads plus a memory map (sized regions with optional real data)
and a ``store`` dict — the process's logical application state, which is what
checkpoint tools capture and restore.

Process *resumability* is explicit rather than magical: a process is created
from a ``main_factory`` callable, and restart re-invokes the factory against
the restored store. Programs that want to survive a snapshot keep their
progress in the store (an iteration counter, a phase tag), exactly the way
the offload runtime and the paper's iterative benchmarks do.
"""

from __future__ import annotations

import copy
import itertools
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from ..hw.memory import PhysicalMemory
from ..sim.errors import SimError
from ..sim.events import Event
from ..sim.kernel import SimGen, Thread
from .fd import FileDescriptor
from .fs import FileSystem
from .sockets import SocketNamespace
from . import signals as sig

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.kernel import Simulator


class ProcessError(SimError):
    """Process lifecycle misuse (signals to dead processes, etc.)."""


class MemoryRegion:
    """One mapped region of a process: modeled size + optional real data.

    ``pinned`` regions are registered for RDMA and cannot be paged out —
    the reason Xeon Phi OS swap cannot relieve memory pressure for offload
    applications (a motivation the paper gives for process swapping).
    """

    __slots__ = ("name", "size", "kind", "data", "pinned", "tracker")

    KINDS = ("text", "heap", "stack", "localstore", "coi_buffer")

    def __init__(self, name: str, size: int, kind: str = "heap", data: Any = None, pinned: bool = False):
        if kind not in self.KINDS:
            raise ValueError(f"unknown region kind {kind!r}")
        if size < 0:
            raise ValueError("negative region size")
        self.name = name
        self.size = size
        self.kind = kind
        self.data = data
        self.pinned = pinned
        #: Optional dirty-page tracker (repro.blcr.dirty.RegionTracker).
        #: None unless incremental checkpointing opted the region in.
        self.tracker = None

    def enable_tracking(self) -> None:
        """Attach a dirty-page tracker (idempotent; zero simulated cost)."""
        if self.tracker is None:
            from ..blcr.dirty import RegionTracker

            self.tracker = RegionTracker(self.size)

    def write(self, offset: int, nbytes: int) -> None:
        """Note an application write for dirty tracking.

        A pure bookkeeping hook: no simulated time, no events. A no-op when
        tracking is off, so instrumented programs behave identically on the
        golden trace.
        """
        if self.tracker is not None:
            self.tracker.note_write(offset, nbytes)

    def clone(self) -> "MemoryRegion":
        return MemoryRegion(self.name, self.size, self.kind, copy.deepcopy(self.data), self.pinned)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Region {self.name} {self.kind} {self.size}B{' pinned' if self.pinned else ''}>"


RUNNING = "running"
TERMINATED = "terminated"


class SimProcess:
    """A simulated OS process."""

    def __init__(self, os: "OSInstance", pid: int, name: str,
                 main_factory: Optional[Callable[["SimProcess"], SimGen]] = None):
        self.os = os
        self.sim = os.sim
        self.pid = pid
        self.name = name
        self.state = RUNNING
        self.exit_code: Optional[int] = None
        self.exit_event = Event(self.sim, name=f"exit:{name}")
        self.regions: Dict[str, MemoryRegion] = {}
        #: Logical application/runtime state; checkpointed and restored.
        self.store: Dict[str, Any] = {}
        #: Free-form attachment point for runtime layers (COI, Snapify).
        self.runtime: Dict[str, Any] = {}
        self.threads: List[Thread] = []
        self.signal_handlers: Dict[int, Callable[["SimProcess", int], SimGen]] = {}
        #: Signals queued while blocked, in arrival order (POSIX allows
        #: collapsing duplicates; this model keeps every arrival).
        self.pending_signals: List[int] = []
        #: Currently blocked signal numbers (sigprocmask).
        self.blocked_signals: set = set()
        #: Listeners this process owns in the OS socket namespace; closed
        #: (address released) when the process dies.
        self.listeners: List[Any] = []
        self.open_fds: List[FileDescriptor] = []
        self.main_factory = main_factory
        self.main_thread: Optional[Thread] = None
        #: When True, newly mapped regions get dirty-page trackers attached.
        self.dirty_tracking = False

    # -- threads ----------------------------------------------------------
    def spawn_thread(self, gen: SimGen, name: str = "", daemon: bool = False) -> Thread:
        if self.state != RUNNING:
            raise ProcessError(f"{self.name}: spawning thread in dead process")
        t = self.sim.spawn(gen, name=f"{self.name}/{name or 'thread'}", daemon=daemon)
        self.threads.append(t)
        return t

    def start(self) -> None:
        """Launch the main thread (if a main factory was provided)."""
        if self.main_factory is not None and self.main_thread is None:
            self.main_thread = self.spawn_thread(self.main_factory(self), name="main")

    # -- memory -----------------------------------------------------------
    def map_region(self, name: str, size: int, kind: str = "heap",
                   data: Any = None, pinned: bool = False) -> MemoryRegion:
        """Allocate a region against the OS's physical memory."""
        if name in self.regions:
            raise ProcessError(f"{self.name}: region {name!r} already mapped")
        self.os.memory.allocate(size, "process")
        region = MemoryRegion(name, size, kind, data, pinned)
        if self.dirty_tracking:
            region.enable_tracking()
        self.regions[name] = region
        return region

    def enable_dirty_tracking(self) -> None:
        """Turn on dirty-page tracking for current and future regions."""
        self.dirty_tracking = True
        for region in self.regions.values():
            region.enable_tracking()

    def unmap_region(self, name: str) -> None:
        region = self.regions.pop(name, None)
        if region is None:
            raise ProcessError(f"{self.name}: unmapping unknown region {name!r}")
        self.os.memory.free(region.size, "process")

    def region(self, name: str) -> MemoryRegion:
        return self.regions[name]

    @property
    def memory_footprint(self) -> int:
        return sum(r.size for r in self.regions.values())

    # -- file descriptors --------------------------------------------------
    def register_fd(self, fd: FileDescriptor) -> FileDescriptor:
        self.open_fds.append(fd)
        return fd

    def close_fd(self, fd: FileDescriptor) -> None:
        """Close ``fd`` and stop tracking it.

        For a server handler ending its connection: a long-lived daemon
        would otherwise keep every descriptor it ever served in
        :attr:`open_fds`.
        """
        fd.close()
        if fd in self.open_fds:
            self.open_fds.remove(fd)

    # -- signals -------------------------------------------------------------
    def install_signal_handler(self, signum: int,
                               handler: Callable[["SimProcess", int], SimGen]) -> None:
        if not sig.can_be_caught(signum):
            raise ProcessError(f"signal {signum} cannot be caught")
        self.signal_handlers[signum] = handler

    def block_signal(self, signum: int) -> None:
        """Add a signal to the blocked mask (sigprocmask SIG_BLOCK)."""
        self.blocked_signals.add(signum)

    def unblock_signal(self, signum: int) -> List[Optional[Thread]]:
        """Remove a signal from the blocked mask and deliver what queued.

        Pending instances of the signal are delivered in arrival order;
        returns the handler threads spawned (None entries for default
        actions), like repeated :meth:`deliver_signal`.
        """
        self.blocked_signals.discard(signum)
        delivered: List[Optional[Thread]] = []
        while signum in self.pending_signals and self.alive:
            self.pending_signals.remove(signum)
            delivered.append(self.deliver_signal(signum))
        return delivered

    def deliver_signal(self, signum: int) -> Optional[Thread]:
        """Deliver a signal: run its handler thread or apply default action.

        A blocked, catchable signal queues on ``pending_signals`` instead
        (uncatchable signals — SIGKILL-class — ignore the mask, as on
        POSIX); it is delivered when :meth:`unblock_signal` clears the mask.
        """
        if self.state != RUNNING:
            raise ProcessError(f"{self.name}: signal {signum} to dead process")
        if signum in self.blocked_signals and sig.can_be_caught(signum):
            self.pending_signals.append(signum)
            return None
        handler = self.signal_handlers.get(signum)
        if handler is not None:
            return self.spawn_thread(handler(self, signum), name=f"sig{signum}")
        if sig.default_is_fatal(signum):
            self.terminate(code=128 + signum)
        # Non-fatal, unhandled signals are ignored (SIG_DFL ignore).
        return None

    # -- lifecycle -----------------------------------------------------------
    def terminate(self, code: int = 0) -> None:
        """Kill every thread, release memory and FDs, and fire exit_event."""
        if self.state == TERMINATED:
            return
        self.state = TERMINATED
        self.exit_code = code
        for t in self.threads:
            t.kill()
        self.threads.clear()
        for fd in self.open_fds:
            try:
                fd.close()
            except Exception:  # pragma: no cover - defensive cleanup
                pass
        self.open_fds.clear()
        self.pending_signals.clear()
        for listener in list(self.listeners):
            try:
                listener.close()
            except Exception:  # pragma: no cover - defensive cleanup
                pass
        self.listeners.clear()
        for name in list(self.regions):
            self.unmap_region(name)
        self.os._reap(self)
        self.exit_event.succeed(code)

    @property
    def alive(self) -> bool:
        return self.state == RUNNING

    def __repr__(self) -> str:  # pragma: no cover
        return f"<SimProcess {self.name} pid={self.pid} {self.state}>"


class OSInstance:
    """One booted OS kernel (host Linux or the Phi's embedded Linux)."""

    HOST = "host"
    PHI = "phi"

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        kind: str,
        memory: PhysicalMemory,
        fs: FileSystem,
        socket_bandwidth: float,
        spawn_latency: float,
    ):
        if kind not in (self.HOST, self.PHI):
            raise ValueError(f"unknown OS kind {kind!r}")
        self.sim = sim
        self.name = name
        self.kind = kind
        self.memory = memory
        self.fs = fs
        self.sockets = SocketNamespace(sim, default_bandwidth=socket_bandwidth)
        self.spawn_latency = spawn_latency
        self.processes: Dict[int, SimProcess] = {}
        self._pids = itertools.count(1000)
        #: Hook point: callables invoked with each exiting process.
        self.exit_watchers: List[Callable[[SimProcess], None]] = []

    def spawn_process(
        self,
        name: str,
        image_size: int = 0,
        main_factory: Optional[Callable[[SimProcess], SimGen]] = None,
        start: bool = True,
    ):
        """Sub-generator: fork+exec a process; returns the SimProcess."""
        yield self.sim.sleep(self.spawn_latency)
        proc = SimProcess(self, next(self._pids), name, main_factory=main_factory)
        self.processes[proc.pid] = proc
        if image_size:
            proc.map_region("text", image_size, kind="text")
        if start:
            proc.start()
        return proc

    def process_by_pid(self, pid: int) -> SimProcess:
        proc = self.processes.get(pid)
        if proc is None:
            raise ProcessError(f"{self.name}: no such pid {pid}")
        return proc

    def _reap(self, proc: SimProcess) -> None:
        self.processes.pop(proc.pid, None)
        for watcher in list(self.exit_watchers):
            watcher(proc)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<OSInstance {self.name} ({self.kind}) procs={len(self.processes)}>"
