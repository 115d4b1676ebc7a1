"""Native (card-only) micro-benchmarks of §7's Snapify-IO evaluation.

* :func:`copy_microbenchmark` — the Table 3 workload: copy a file between
  the host and the Xeon Phi via scp, NFS or Snapify-IO.
* :class:`MallocLoopBenchmark` — the Table 4 workload: a native OpenMP
  process that mallocs 1 MB - 4 GB and spins in a 240-thread loop; BLCR
  snapshots it through each storage backend.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..blcr import cr_checkpoint, cr_restart
from ..osim.fd import RegularFileFD
from ..osim.process import SimProcess
from ..snapify_io.library import snapifyio_open
from ..snapify_io.nfs import NFSKernelBufferedFD, NFSMount, NFSUserBufferedFD
from ..snapify_io.scp import scp_copy

if TYPE_CHECKING:  # pragma: no cover
    from ..testbed import XeonPhiServer


# ---------------------------------------------------------------------------
# Table 3: file copy micro-benchmark
# ---------------------------------------------------------------------------


def copy_microbenchmark(server: "XeonPhiServer", method: str, direction: str,
                        nbytes: int, device: int = 0):
    """Sub-generator: copy ``nbytes`` between card and host via ``method``
    ('scp' | 'nfs' | 'snapify-io') in ``direction`` ('to_host' | 'to_phi').
    Returns the elapsed simulated time."""
    sim = server.sim
    phi_os = server.phi_os(device)
    host_os = server.host_os
    src_is_phi = direction == "to_host"
    src_os, dst_os = (phi_os, host_os) if src_is_phi else (host_os, phi_os)

    # Stage the source file (not timed).
    src_path = f"/bench/src_{method}_{direction}"
    yield from src_os.fs.write(src_path, nbytes)

    t0 = sim.now
    if method == "scp":
        yield from scp_copy(src_os, dst_os, src_path, f"/bench/dst_scp", server.params.scp)
    elif method == "nfs":
        mount = NFSMount(phi_os, host_os.fs, server.params.nfs)
        if src_is_phi:
            # Card reads its RAM-FS file and writes through the mount.
            yield from phi_os.fs.read(src_path)
            yield from mount.write("/bench/dst_nfs", nbytes)
        else:
            yield from mount.read(src_path)
            yield from phi_os.fs.write("/bench/dst_nfs_local", nbytes)
    elif method == "snapify-io":
        if src_is_phi:
            yield from phi_os.fs.read(src_path)
            fd = yield from snapifyio_open(phi_os, 0, "/bench/dst_sio", "w")
            yield from fd.write(nbytes)
            yield from fd.finish()
        else:
            fd = yield from snapifyio_open(phi_os, 0, src_path, "r")
            yield from _read_all(fd)
            fd.close()
            yield from phi_os.fs.write("/bench/dst_sio_local", nbytes)
    else:
        raise ValueError(f"unknown method {method!r}")
    elapsed = sim.now - t0

    # Clean up card memory so sweeps don't accumulate RAM-FS pressure.
    for fs, path in [
        (phi_os.fs, src_path if src_is_phi else "/bench/dst_nfs_local"),
        (phi_os.fs, "/bench/dst_sio_local"),
    ]:
        if fs.exists(path):
            fs.unlink(path)
    return elapsed


def _read_all(fd):
    while True:
        rec = yield from fd.read(4 * 1024 * 1024)
        if rec is None:
            break


# ---------------------------------------------------------------------------
# Table 4: BLCR checkpoint/restart of a native malloc benchmark
# ---------------------------------------------------------------------------


def malloc_loop_main(proc: SimProcess):
    """240-thread OpenMP spin loop; progress lives in the store."""
    proc.store.setdefault("spins", 0)
    while True:
        yield proc.sim.sleep(0.01)
        proc.store["spins"] += 1


class MallocLoopBenchmark:
    """Owner of one native benchmark process on the card."""

    def __init__(self, server: "XeonPhiServer", malloc_bytes: int, device: int = 0):
        self.server = server
        self.sim = server.sim
        self.phi_os = server.phi_os(device)
        self.malloc_bytes = malloc_bytes
        self.proc: Optional[SimProcess] = None

    def start(self):
        """Sub-generator: launch the native process."""
        self.proc = yield from self.phi_os.spawn_process(
            "malloc_loop", image_size=2 * 1024 * 1024, main_factory=malloc_loop_main
        )
        self.proc.map_region("heap", self.malloc_bytes)
        # 240 threads' worth of metadata records in the BLCR context: the
        # process spawns stand-in threads so nthreads is realistic.
        for t in range(239):
            self.proc.spawn_thread(_spin(self.proc), name=f"omp{t}", daemon=True)
        return self.proc

    def checkpoint(self, method: str, ctx_path: str = "/snap/native_ctx"):
        """Sub-generator: checkpoint through ``method``; returns elapsed time.

        Methods: 'local' (card RAM-FS — can OOM), 'nfs', 'nfs-buffered-kernel',
        'nfs-buffered-user', 'snapify-io'.
        """
        sim = self.sim
        host_fs = self.server.host_os.fs
        t0 = sim.now
        if method == "local":
            fd = RegularFileFD(sim, self.phi_os.fs, ctx_path, "w")
            yield from cr_checkpoint(self.proc, fd)
            fd.close()
        elif method == "nfs":
            mount = NFSMount(self.phi_os, host_fs, self.server.params.nfs, sync_writes=True)
            fd = RegularFileFD(sim, mount, ctx_path, "w")
            yield from cr_checkpoint(self.proc, fd)
            fd.close()
        elif method in ("nfs-buffered-kernel", "nfs-buffered-user"):
            mount = NFSMount(self.phi_os, host_fs, self.server.params.nfs, sync_writes=True)
            cls = NFSKernelBufferedFD if method.endswith("kernel") else NFSUserBufferedFD
            fd = cls(mount, ctx_path)
            yield from cr_checkpoint(self.proc, fd)
            yield from fd.flush()
            fd.close()
        elif method == "snapify-io":
            fd = yield from snapifyio_open(self.phi_os, 0, ctx_path, "w")
            yield from cr_checkpoint(self.proc, fd)
            yield from fd.finish()
        else:
            raise ValueError(f"unknown method {method!r}")
        return sim.now - t0

    def restart(self, method: str, ctx_path: str = "/snap/native_ctx"):
        """Sub-generator: restart from the context; returns (proc, elapsed).

        Buffering does not apply to restores (as the paper notes), so the
        methods are 'local', 'nfs' and 'snapify-io'.
        """
        sim = self.sim
        host_fs = self.server.host_os.fs
        t0 = sim.now
        if method == "local":
            fd = RegularFileFD(sim, self.phi_os.fs, ctx_path, "r")
            proc = yield from cr_restart(self.phi_os, fd)
            fd.close()
        elif method == "nfs":
            mount = NFSMount(self.phi_os, host_fs, self.server.params.nfs)
            fd = RegularFileFD(sim, mount, ctx_path, "r")
            proc = yield from cr_restart(self.phi_os, fd)
            fd.close()
        elif method == "snapify-io":
            fd = yield from snapifyio_open(self.phi_os, 0, ctx_path, "r")
            proc = yield from cr_restart(self.phi_os, fd)
            fd.close()
        else:
            raise ValueError(f"unknown method {method!r}")
        return proc, sim.now - t0

    def stop(self) -> None:
        if self.proc is not None and self.proc.alive:
            self.proc.terminate()


def _spin(proc: SimProcess):
    while True:
        yield proc.sim.sleep(1.0)
