"""The offload application framework.

Builds a runnable, *snapshot-survivable* offload application from a
:class:`~repro.apps.workloads.BenchmarkProfile`:

* the card binary (an ``init`` region that maps the offload-private heap
  and an ``iterate`` region that advances a checksum);
* the host program — an iterative loop keeping all progress in the process
  store, using keyed run-functions so any snapshot/restart yields the same
  final checksum;
* an *application gate* so the transparent ``snapify`` CLI can swap or
  migrate the process between iterations without racing application I/O.

The final checksum is a pure function of the iteration count, so every test
and benchmark can verify end-to-end correctness after arbitrary snapshot
interleavings: ``checksum == expected_checksum(iterations)``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Optional

from ..coi.engine import COIEngine
from ..coi.pipeline import CardContext, OffloadBinary, OffloadFunction
from ..coi.process import COIProcess
from ..osim.process import SimProcess
from ..sim.sync import Mutex
from ..snapify.cli import install_cli_handler
from .workloads import BenchmarkProfile

if TYPE_CHECKING:  # pragma: no cover
    from ..testbed import XeonPhiServer


def expected_checksum(iterations: int) -> int:
    """The checksum a run of ``iterations`` steps must produce."""
    acc = 0
    for i in range(iterations):
        acc = (acc * 31 + i) % 1_000_000_007
    return acc


def _iterate_effect(ctx: CardContext, args: Any) -> int:
    acc = ctx.store.get("acc", 0)
    acc = (acc * 31 + args["i"]) % 1_000_000_007
    ctx.store["acc"] = acc
    return acc


def build_binary(profile: BenchmarkProfile) -> OffloadBinary:
    """The card-side shared library for one benchmark."""

    def init_effect(ctx: CardContext, args: Any) -> str:
        if not ctx.has_region("app_heap"):
            ctx.map_region("app_heap", profile.offload_heap)
        return "ready"

    return OffloadBinary(
        name=f"{profile.name}_mic.so",
        image_size=profile.binary_size,
        functions={
            "init": OffloadFunction("init", duration=20e-3, effect=init_effect),
            "iterate": OffloadFunction(
                "iterate", duration=profile.call_duration, effect=_iterate_effect
            ),
        },
    )


class OffloadApplication:
    """One running offload benchmark on a testbed server."""

    def __init__(
        self,
        server: "XeonPhiServer",
        profile: BenchmarkProfile,
        device: int = 0,
        snapify_enabled: bool = True,
        iterations: Optional[int] = None,
        name: Optional[str] = None,
    ):
        self.server = server
        self.sim = server.sim
        self.profile = profile
        self.device = device
        self.snapify_enabled = snapify_enabled
        self.iterations = iterations if iterations is not None else profile.iterations
        self.name = name or profile.name
        self.binary = build_binary(profile)
        self.host_proc: Optional[SimProcess] = None

    # -- launch -------------------------------------------------------------
    def launch(self):
        """Sub-generator: spawn the host process; returns it. The program
        itself runs on the process's main thread."""
        self.host_proc = yield from self.server.host_os.spawn_process(
            self.name, image_size=16 * 1024 * 1024, main_factory=self._main_factory()
        )
        # The application gate exists from the instant the process does, so
        # external actors (scheduler, CLI, tests) can coordinate immediately.
        self.host_proc.runtime.setdefault("app_gate", Mutex(self.sim, "app_gate"))
        return self.host_proc

    def _main_factory(self):
        app = self

        def main(proc: SimProcess):
            yield from app._program(proc)

        return main

    # -- the host program ------------------------------------------------------
    def _program(self, proc: SimProcess):
        store = proc.store
        gate: Mutex = proc.runtime.setdefault("app_gate", Mutex(self.sim, "app_gate"))
        install_cli_handler(proc)

        if store.get("_blcr_restored"):
            # Fig. 5 restart path: the restore machinery left the new handle
            # in the runtime before (re)starting us.
            coiproc: COIProcess = proc.runtime.pop("coi_restored_handle")
            proc.runtime["coi_handle"] = coiproc
        else:
            store["iter"] = 0
            store["checksum"] = 0
            store["app"] = self.profile.name
            proc.map_region("heap", self.profile.host_heap, kind="heap")
            engine = COIEngine(self.server.node, self.device)
            coiproc = yield from engine.process_create(
                proc, self.binary, snapify_enabled=self.snapify_enabled
            )
            proc.runtime["coi_handle"] = coiproc
        if "buf_ids" not in store:
            # Set-up, or the part of it a snapshot taken mid-set-up missed.
            # The card's buffer table is the truth: a restored handle holds
            # every buffer the snapshot caught.
            per_buffer = self.profile.local_store // self.profile.n_buffers
            buf_ids: List[int] = sorted(coiproc.buffers)
            while len(buf_ids) < self.profile.n_buffers:
                buf = yield from coiproc.buffer_create(per_buffer)
                buf_ids.append(buf.buf_id)
            store["buf_ids"] = buf_ids
            yield from coiproc.run_function_keyed("init", "init")

        buf_ids = store["buf_ids"]
        while store["iter"] < self.iterations:
            i = store["iter"]
            # One iteration under the application gate: the snapify CLI
            # holds this gate across swap/migrate so we never race a dying
            # handle mid-operation.
            yield gate.acquire(owner=f"iter{i}")
            try:
                coiproc = proc.runtime["coi_handle"]
                yield self.sim.sleep(self.profile.host_compute)
                buf = coiproc.buffers[buf_ids[i % len(buf_ids)]]
                yield from coiproc.buffer_write(
                    buf, payload=i, nbytes=min(self.profile.transfer_in, buf.size)
                )
                result = yield from coiproc.run_function_keyed(
                    ("it", i), "iterate", {"i": i, "buf": buf.buf_id}
                )
                yield from coiproc.buffer_read(
                    buf, nbytes=min(self.profile.transfer_out, buf.size)
                )
                store["checksum"] = result
                store["iter"] = i + 1
            finally:
                gate.release()
        store["finished"] = True

    # -- conveniences ------------------------------------------------------------
    @property
    def coiproc(self) -> COIProcess:
        return self.host_proc.runtime["coi_handle"]

    @property
    def finished(self) -> bool:
        return bool(self.host_proc and self.host_proc.store.get("finished"))

    def verify(self) -> bool:
        """Did the run produce the correct checksum?"""
        return (
            self.host_proc is not None
            and self.host_proc.store.get("checksum") == expected_checksum(self.iterations)
        )

    def run_to_completion(self):
        """Sub-generator: launch (if needed) and wait for the program."""
        if self.host_proc is None:
            yield from self.launch()
        yield self.host_proc.main_thread.done
        return self.host_proc.store.get("checksum")
