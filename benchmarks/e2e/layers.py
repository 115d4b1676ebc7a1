"""The traced run: per-layer host cost and per-layer counts.

One cycle runs untraced (the baseline for the tracing overhead), then the
same cycle runs again under ``cProfile`` with counting wrappers around a few
public functions. Nothing in ``src/`` changes: the profiler attributes
self time to files, the wrappers count calls and arguments, and the
operation results and metric registries of every simulator built during
the traced cycle supply the simulated sums.

Layers are the packages under ``repro``; the top-level modules
(``testbed``, ``calibration``, ``metrics``) count as ``testbed``, and
everything outside ``repro`` (the standard library, builtins such as
``heapq`` and generator ``send``, and this harness) counts as ``py``.
"""

from __future__ import annotations

import cProfile
import math
import os
import pstats
import sys
import time
from contextlib import ExitStack, contextmanager
from typing import Any, Dict, List

LAYERS = ("sim", "hw", "osim", "scif", "coi", "blcr", "snapify", "snapify_io",
          "mpi", "sched", "obs", "check", "apps", "testbed", "py")

_PAGE = 4096


def _package_root() -> str:
    import repro

    return os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def layer_of(filename: str, root: str) -> str:
    """The layer a source file belongs to (``root`` is repro's directory)."""
    path = os.path.abspath(filename)
    if not path.startswith(root):
        return "py"
    head = path[len(root):].split(os.sep, 1)
    return head[0] if len(head) == 2 and head[0] in LAYERS else "testbed"


def _key(fn) -> tuple:
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


@contextmanager
def _patched(owner: Any, name: str, wrapper) -> Any:
    """Replace ``owner.name`` with ``wrapper(original)``. For a module
    function, every ``repro`` module that imported the same object by name
    is patched too, so ``from x import f`` call sites are counted."""
    original = getattr(owner, name)
    wrapped = wrapper(original)
    holders = [owner]
    if not isinstance(owner, type):
        holders += [m for n, m in list(sys.modules.items())
                    if n.startswith("repro") and m is not owner
                    and getattr(m, name, None) is original]
    for holder in holders:
        setattr(holder, name, wrapped)
    try:
        yield
    finally:
        for holder in holders:
            setattr(holder, name, original)


class Counters:
    """Counts kept by the wrappers of one traced cycle."""

    def __init__(self):
        self.n: Dict[str, float] = {}
        self.sims: List[Any] = []
        self.comms: List[Any] = []
        self.injectors: List[Any] = []

    def add(self, name: str, value: float = 1) -> None:
        self.n[name] = self.n.get(name, 0) + value

    def counting(self, name: str, *, pages: str = "", host_s: str = ""):
        """Wrapper factory: count calls (and pages of an ``nbytes``
        argument, and host time) of the wrapped callable."""
        for key in filter(None, (name, pages, host_s)):
            self.n.setdefault(key, 0)

        def wrapper(fn):
            def wrapped(*args, **kwargs):
                self.add(name)
                if pages:
                    nbytes = kwargs.get("nbytes", args[-1] if len(args) > 1 else 0)
                    self.add(pages, max(1, math.ceil(nbytes / _PAGE)))
                if not host_s:
                    return fn(*args, **kwargs)
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.add(host_s, time.perf_counter() - t0)

            return wrapped

        return wrapper

    def collecting(self, into: List[Any]):
        """Wrapper factory for ``__init__``: keep every instance built."""

        def wrapper(init):
            def wrapped(obj, *args, **kwargs):
                init(obj, *args, **kwargs)
                into.append(obj)

            return wrapped

        return wrapper

    @contextmanager
    def installed(self):
        from repro.blcr import checkpoint as blcr_checkpoint
        from repro.check import oracles
        from repro.coi.process import COIProcess
        from repro.hw.pcie import BandwidthLink
        from repro.mpi.runtime import MPIComm
        from repro.sched.faults import FaultInjector
        from repro.scif.registry import RdmaRegistry
        from repro.sim.kernel import Simulator
        from repro.testbed import XeonPhiServer

        patches = [
            (Simulator, "__init__", self.collecting(self.sims)),
            (MPIComm, "__init__", self.collecting(self.comms)),
            (FaultInjector, "__init__", self.collecting(self.injectors)),
            (BandwidthLink, "occupy", self.counting("hw.pcie_occupy_calls")),
            (RdmaRegistry, "allocate_offset",
             self.counting("scif.register_calls", pages="scif.register_pages")),
            (COIProcess, "buffer_create", self.counting("coi.buffer_creates")),
            (blcr_checkpoint, "cr_checkpoint", self.counting("blcr.checkpoints")),
            (blcr_checkpoint, "cr_checkpoint_incremental",
             self.counting("blcr.checkpoints")),
            (oracles, "check_all",
             self.counting("check.oracle_calls", host_s="check.oracle_host_s")),
            (XeonPhiServer, "__init__",
             self.counting("testbed.boots", host_s="testbed.boot_host_s")),
        ]
        with ExitStack() as stack:
            for owner, name, wrapper in patches:
                stack.enter_context(_patched(owner, name, wrapper))
            yield self


def _simulated(counters: Counters) -> Dict[str, float]:
    """Sums over every operation, ticket and registry of the traced cycle."""
    from repro.obs.registry import MetricsRegistry
    from repro.snapify import FleetManager, OperationManager

    phase = {p: 0.0 for p in ("pausing", "drained", "capturing", "capturing_delta",
                              "replicating", "transferring", "retrying")}
    delta_bytes = shipped = 0
    attempts: List[int] = []
    reg: Dict[str, float] = {}
    waits = 0.0
    hwm = 0
    for sim in counters.sims:
        mgr = OperationManager.peek(sim)
        for op in (mgr.operations.values() if mgr is not None else ()):
            r = op.result
            if r is None:
                continue
            for p in phase:
                phase[p] += r.phases.get(p, 0.0)
            delta_bytes += r.delta_bytes or 0
            shipped += r.shipped_bytes or 0
            if r.channel is not None:
                attempts.append(r.attempts)
        for name, value in MetricsRegistry.of(sim).snapshot()["counters"].items():
            reg[name] = reg.get(name, 0) + value
        for manager in FleetManager.all_of(sim):
            hwm = max(hwm, manager.hwm_in_flight)
            waits += sum(t.queue_wait or 0.0 for t in manager.tickets)
    return {
        "blcr.delta_bytes": delta_bytes,
        "blcr.capture_sim_s": phase["capturing"] + phase["capturing_delta"],
        "snapify.pause_sim_s": phase["pausing"] + phase["drained"],
        "snapify.fleet_queue_wait_sim_s": waits,
        "snapify.fleet_hwm_in_flight": hwm,
        "snapify.monitor_relays": reg.get("snapify.monitor.relays", 0),
        "snapify_io.transfer_sim_s": phase["transferring"],
        "snapify_io.replicate_sim_s": phase["replicating"],
        "snapify_io.retry_sim_s": phase["retrying"],
        "snapify_io.attempts_per_transfer": (sum(attempts) / len(attempts)
                                             if attempts else 1.0),
        "snapify_io.shipped_bytes": shipped,
        "snapify_io.memtier_hits_local": reg.get("memtier.hits.local", 0),
        "snapify_io.memtier_hits_partner": reg.get("memtier.hits.partner", 0),
        "snapify_io.memtier_hits_nfs": reg.get("memtier.hits.nfs", 0),
        "mpi.messages_sent": sum(c.messages_sent for c in counters.comms),
        "sched.faults_injected": sum(len(i.injected) for i in counters.injectors),
    }


def _profiled(stats: pstats.Stats, root: str) -> Dict[str, float]:
    """Self-time shares per layer and the kernel's counts."""
    from repro.sim.events import Event
    from repro.sim.kernel import Thread
    from repro.snapify.monitor import SnapifyService

    self_time = {layer: 0.0 for layer in LAYERS}
    dispatches = 0
    for (filename, _line, name), (_cc, _nc, tt, _ct, callers) in stats.stats.items():
        self_time[layer_of(filename, root)] += tt
        if name == "<built-in method _heapq.heappop>":
            dispatches += sum(c[0] for f, c in callers.items()
                              if layer_of(f[0], root) == "sim")
    total = sum(self_time.values())
    out = {f"{layer}.self_share": t / total for layer, t in self_time.items()}

    def calls(fn) -> int:
        entry = stats.stats.get(_key(fn))
        return entry[1] if entry else 0

    out["sim.dispatches"] = dispatches
    out["sim.thread_resumes"] = calls(Thread._step)
    out["sim.events_created"] = calls(Event.__init__)
    # A generator's profiler call count is its resume count.
    out["snapify.monitor_wakeups"] = calls(SnapifyService._monitor)
    return out


#: Per-layer metric -> (unit, better). The traced run reports exactly these.
PER_LAYER = {
    **{f"{layer}.self_share": ("ratio", "lower") for layer in LAYERS},
    "trace.overhead_frac": ("ratio", "lower"),
    "sim.dispatches": ("count", "lower"),
    "sim.thread_resumes": ("count", "lower"),
    "sim.events_created": ("count", "lower"),
    "sim.dispatch_per_s": ("1/s", "higher"),
    "hw.pcie_occupy_calls": ("count", "lower"),
    "scif.register_calls": ("count", "lower"),
    "scif.register_pages": ("count", "lower"),
    "coi.buffer_creates": ("count", "lower"),
    "blcr.checkpoints": ("count", "lower"),
    "blcr.delta_bytes": ("B", "lower"),
    "blcr.capture_sim_s": ("sim_s", "lower"),
    "snapify.pause_sim_s": ("sim_s", "lower"),
    "snapify.monitor_wakeups": ("count", "lower"),
    "snapify.monitor_useful_frac": ("ratio", "higher"),
    "snapify.fleet_queue_wait_sim_s": ("sim_s", "lower"),
    "snapify.fleet_hwm_in_flight": ("count", "higher"),
    "snapify_io.transfer_sim_s": ("sim_s", "lower"),
    "snapify_io.replicate_sim_s": ("sim_s", "lower"),
    "snapify_io.retry_sim_s": ("sim_s", "lower"),
    "snapify_io.attempts_per_transfer": ("ratio", "lower"),
    "snapify_io.shipped_bytes": ("B", "lower"),
    "snapify_io.memtier_hits_local": ("count", "higher"),
    "snapify_io.memtier_hits_partner": ("count", "lower"),
    "snapify_io.memtier_hits_nfs": ("count", "lower"),
    "mpi.messages_sent": ("count", "lower"),
    "sched.faults_injected": ("count", "higher"),
    "check.oracle_calls": ("count", "lower"),
    "check.oracle_host_s": ("s", "lower"),
    "testbed.boots": ("count", "lower"),
    "testbed.boot_host_s": ("s", "lower"),
}


def traced_run(workload, seed: int, untraced, traced) -> Dict[str, Any]:
    """Run one cycle untraced with recorder ``untraced``, then one traced
    with recorder ``traced``; returns the per-layer metrics and the traced
    cycle's spans."""
    from .harness import run, spans

    t0 = time.perf_counter()
    run(workload, seed, 0.0, untraced)
    untraced_s = time.perf_counter() - t0

    counters = Counters()
    profile = cProfile.Profile()
    with counters.installed():
        t0 = time.perf_counter()
        profile.enable()
        try:
            run(workload, seed, 0.0, traced)
        finally:
            profile.disable()
        traced_s = time.perf_counter() - t0

    values = dict(counters.n)
    values.update(_simulated(counters))
    values.update(_profiled(pstats.Stats(profile), _package_root()))
    values["trace.overhead_frac"] = traced_s / untraced_s - 1
    values["sim.dispatch_per_s"] = values["sim.dispatches"] / untraced_s
    wakeups = values["snapify.monitor_wakeups"]
    values["snapify.monitor_useful_frac"] = (
        values.pop("snapify.monitor_relays") / wakeups if wakeups else 1.0)
    return {
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, (unit, _better) in PER_LAYER.items()},
        "spans": spans(traced),
        "attempted": len(traced.ops),
        "failed": len(traced.ledger),
        "untraced_s": untraced_s,
        "traced_s": traced_s,
    }
