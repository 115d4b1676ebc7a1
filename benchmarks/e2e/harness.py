"""Child side of the benchmark: run one workload in this process.

``python -m benchmarks.e2e`` starts one fresh process per workload run as
``python -m benchmarks.e2e.harness '<spec>'``, where the JSON spec names
the workload, seed, measuring seconds and mode:

* ``run``: measure set-up, run the cycle once and replay it until the
  measuring time is up, then report the end-to-end metrics;
* ``setup``: stop when set-up is over and report only the set-up time;
* ``trace``: run the cycle once untraced, then once more under ``cProfile``
  with the counting wrappers of :mod:`benchmarks.e2e.layers` installed,
  and report the per-layer metrics.

The result is printed as one JSON line on stdout.
"""

import time

#: Set-up is measured from this process's first line.
_T0 = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

from .stats import TooFewSamples, median, percentile  # noqa: E402


class SetupDone(BaseException):
    """Raised when a set-up probe becomes ready. A BaseException, so the
    workloads' and the simulator's error handling lets it through."""


@dataclass
class Op:
    """One operation as the harness saw it: host and simulated span."""

    id: int
    unit: int
    kind: str
    label: str
    host_start: float
    sim_start: float
    host_end: Optional[float] = None
    sim_end: Optional[float] = None
    nbytes: int = 0
    #: Simulated admission-queue wait (fleet tickets only).
    wait: Optional[float] = None
    error: Optional[str] = None

    @property
    def host_ms(self) -> float:
        return (self.host_end - self.host_start) * 1e3

    @property
    def sim_s(self) -> float:
        return self.sim_end - self.sim_start

    def signature(self) -> str:
        """What a replay of this op must reproduce exactly."""
        sim = repr(self.sim_s) if self.sim_end is not None else "-"
        return f"{self.kind}|{self.label}|{self.error is None}|{sim}|{self.nbytes}"


class Recorder:
    """Collects one run's ops, unit spans and failure ledger."""

    def __init__(self, workload: str, seed: int, *, probe: bool = False):
        self.workload = workload
        self.seed = seed
        self.probe = probe
        self.ops: List[Op] = []
        self.units: List[Dict[str, float]] = []
        self.ledger: List[Dict[str, Any]] = []
        self.unit = 0
        #: Replayed units reproduce the first cycle's failures; only a
        #: divergence is new, and the replay check reports that.
        self.replay = False
        #: End of set-up and start of the timed window (see :meth:`ready`).
        self.ready_host: Optional[float] = None
        self.end_host: Optional[float] = None
        self.check_s = 0.0
        #: ``ru_maxrss`` after the first cycle, before any replay.
        self.peak_rss_mb: Optional[float] = None

    # -- ops ------------------------------------------------------------------
    def ready(self) -> None:
        """Set-up is over: the first testbed is booted and its first app
        launched. Workloads call this before they start issuing load; the
        first op calls it at the latest."""
        if self.ready_host is None:
            self.ready_host = time.perf_counter()
            if self.probe:
                raise SetupDone()

    def begin(self, kind: str, label: str, sim: Any = None, *,
              sim_start: float = 0.0, host_start: Optional[float] = None) -> Op:
        self.ready()
        op = Op(len(self.ops) + 1, self.unit, kind, label,
                host_start if host_start is not None else time.perf_counter(),
                sim.now if sim is not None else sim_start)
        self.ops.append(op)
        return op

    def end(self, op: Op, sim: Any = None, *, sim_end: float = 0.0) -> None:
        op.host_end = time.perf_counter()
        op.sim_end = sim.now if sim is not None else sim_end

    def timed(self, kind: str, label: str, sim: Any, gen):
        """Sub-generator: run ``gen`` as one op; returns its value."""
        op = self.begin(kind, label, sim)
        try:
            value = yield from gen
        except Exception as exc:
            self.end(op, sim)
            self.fail(type(exc).__name__, str(exc), op=op)
            raise
        self.end(op, sim)
        return value

    # -- failures -------------------------------------------------------------
    def fail(self, error_type: str, error: str, *, op: Optional[Op] = None,
             **where: Any) -> None:
        """Record a failure, against ``op`` when it has one. An op counts
        once: its first failure is its ledger entry."""
        if op is not None:
            if op.error is not None:
                return
            op.error = f"{error_type}: {error}"
        if self.replay:
            return
        self.ledger.append({
            "workload": self.workload, "seed": self.seed, "unit": self.unit,
            "op": op.label if op is not None else None,
            "kind": op.kind if op is not None else None,
            "error_type": error_type, "error": error[:400], **where,
        })

    def guard(self, fn, *args) -> None:
        """Run one block; a crash fails the op in flight (or the block)."""
        start = len(self.ops)
        try:
            fn(*args)
        except Exception as exc:
            dangling = [op for op in self.ops[start:] if op.host_end is None]
            for op in dangling:
                op.host_end = time.perf_counter()
            self.fail(type(exc).__name__, str(exc),
                      op=dangling[0] if dangling else None)

    @contextmanager
    def checking(self):
        """Time spent here (oracles, checksums) is outside the timed window."""
        t = time.perf_counter()
        try:
            yield
        finally:
            self.check_s += time.perf_counter() - t


def run(workload, seed: int, seconds: float, rec: Recorder) -> int:
    """Run the workload's cycle once, then replay it unit by unit until
    ``seconds`` have passed since set-up ended. A replayed unit must
    reproduce its first run's op signatures exactly. Returns the cycle
    length."""
    cycle = workload.units(seed)
    first: List[List[str]] = []
    i = 0
    while True:
        u = i % len(cycle)
        rec.unit, rec.replay = i, i >= len(cycle)
        start, check_s = len(rec.ops), rec.check_s
        t0 = time.perf_counter()
        workload.run_unit(cycle[u], rec)
        rec.units.append({"unit": i, "host_start": t0, "host_end": time.perf_counter(),
                          "check_s": rec.check_s - check_s, "ops": len(rec.ops) - start})
        sig = [op.signature() for op in rec.ops[start:]]
        if not rec.replay:
            first.append(sig)
            if len(first) == len(cycle):
                rec.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        elif sig != first[u]:
            rec.replay = False
            rec.fail("NondeterministicReplay", f"unit {u} replayed differently")
        i += 1
        if rec.ready_host is None:
            raise RuntimeError(f"{workload.name}: a unit issued no op")
        if i >= len(cycle) and time.perf_counter() - rec.ready_host >= seconds:
            break
    rec.end_host = time.perf_counter()
    return len(cycle)


def first_cycle(rec: Recorder, cycle_len: int) -> List[Op]:
    return [op for op in rec.ops if op.unit < cycle_len]


def sim_digest(ops: List[Op]) -> str:
    """sha256 over every op's kind, label, outcome, simulated latency and
    bytes: equal digests mean equal simulated results."""
    h = hashlib.sha256()
    for op in ops:
        h.update(op.signature().encode())
        h.update(b"\n")
    return h.hexdigest()


def summarize(rec: Recorder, cycle_len: int) -> Dict[str, Any]:
    """Every end-to-end metric but ``setup_s`` (the CLI takes that median
    across fresh processes), the ungated extras and the raw samples. Host
    metrics use every op; simulated metrics and the failure count use the
    first cycle, so they are a pure function of the seed."""
    ops = first_cycle(rec, cycle_len)
    done = [op for op in rec.ops if op.host_end is not None]
    host_ms = [op.host_ms for op in done]
    sim_s = [op.sim_s for op in ops if op.sim_end is not None]
    waits = [op.wait for op in ops if op.wait is not None]
    rates = [u["ops"] / (u["host_end"] - u["host_start"] - u["check_s"]) for u in rec.units]
    timed_s = rec.end_host - rec.ready_host - rec.check_s

    def m(value, unit, n=None):
        return {"value": value, "unit": unit, "n": n}

    extras = {
        # Not gated: on paper_suite the p90 is one seed-independent op.
        "sim_op_p90_s": m(percentile(sim_s, 90), "sim_s", len(sim_s)),
        "op_fail_frac": m(len(rec.ledger) / len(ops), "ratio", len(ops)),
        "sim_digest": m(sim_digest(ops), "sha256", len(ops)),
    }
    if waits:
        try:
            extras["sim_queue_wait_p99_s"] = m(percentile(waits, 99), "sim_s", len(waits))
        except TooFewSamples:
            pass  # a small fleet run; the p99 needs 1000 tickets
    return {
        "metrics": {
            # A median over units shrugs off a stall that hits one unit.
            "ops_per_s": m(median(rates), "1/s", len(done)),
            "op_host_ms_p50": m(median(host_ms), "ms", len(host_ms)),
            "op_host_ms_p90": m(percentile(host_ms, 90), "ms", len(host_ms)),
            "sim_op_p50_s": m(median(sim_s), "sim_s", len(sim_s)),
            # At the end of the first cycle: garbage left by replays would
            # otherwise make the peak grow with the host's speed.
            "peak_rss_mb": m(rec.peak_rss_mb, "MB"),
        },
        "extras": extras,
        "samples": {"op_host_ms": host_ms, "sim_op_s": sim_s},
        "attempted": len(ops),
        "failed": len(rec.ledger),
        "cycle_units": cycle_len,
        "units_run": len(rec.units),
        "timed_s": timed_s,
    }


def spans(rec: Recorder) -> Dict[str, Any]:
    """Harness spans for the Chrome trace: units and ops, host times
    relative to the end of set-up."""
    t0 = rec.ready_host
    return {
        "units": [{"unit": u["unit"], "start": u["host_start"] - t0,
                   "end": u["host_end"] - t0} for u in rec.units],
        "ops": [{"id": op.id, "unit": op.unit, "kind": op.kind, "label": op.label,
                 "start": op.host_start - t0, "end": op.host_end - t0,
                 "sim_start": op.sim_start, "sim_end": op.sim_end, "ok": op.error is None}
                for op in rec.ops if op.host_end is not None],
    }


def execute(spec: Dict[str, Any], workload=None) -> Dict[str, Any]:
    """Run one spec in this process; returns the JSON-able result. Tests
    pass a small ``workload`` instance instead of the named default."""
    from .workloads import WORKLOADS

    name, seed, mode = spec["workload"], spec["seed"], spec["mode"]
    if workload is None:
        workload = WORKLOADS[name]()
    rec = Recorder(name, seed, probe=(mode == "setup"))
    out: Dict[str, Any] = {"workload": name, "seed": seed, "mode": mode}
    if mode == "setup":
        try:
            run(workload, seed, 0.0, rec)
        except SetupDone:
            pass
        out["setup_s"] = rec.ready_host - _T0
        return out
    if mode == "trace":
        from .layers import traced_run

        traced = Recorder(name, seed)
        out.update(traced_run(workload, seed, rec, traced))
        out["ledger"] = traced.ledger
        return out
    cycle_len = run(workload, seed, spec["seconds"], rec)
    out["setup_s"] = rec.ready_host - _T0
    out.update(summarize(rec, cycle_len))
    out["ledger"] = rec.ledger
    return out


def main(argv: List[str]) -> int:
    spec = json.loads(argv[0])
    print(json.dumps(execute(spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
