"""End-to-end benchmark of the Snapify reproduction.

Runs each workload in its own fresh single-threaded process, one after
another, and prints every metric as ``workload metric value unit`` and, as
the last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``. From the repository root::

    python -m benchmarks.e2e --seed 0                      # every workload
    python -m benchmarks.e2e --workload paper_suite --seed 3 --seconds 15
    python -m benchmarks.e2e --seed 0 --trace 1            # per-layer run

An untraced run (``--trace 0``) reports the end-to-end metrics; a traced run
(``--trace 1``) reports the per-layer metrics and writes ``layers.json`` and
the Chrome trace ``trace.json`` beside the report (``--out``, default
``.bench_e2e/report.json``). See ``benchmarks/e2e/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

from .stats import median, summary

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
WORKLOADS = ("paper_suite", "fleet_hall128", "incremental_tier", "fault_sweep")
#: Fresh processes that measure set-up only, besides the measuring one.
SETUP_PROBES = 4
#: Every workload run must end within this many seconds.
DEADLINE_S = 170.0


class ChildFailed(RuntimeError):
    pass


def _child(spec: Dict[str, Any], timeout: float) -> Dict[str, Any]:
    """Run one spec in a fresh process; returns its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "benchmarks.e2e.harness", json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, timeout),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{spec['workload']} ({spec['mode']}) ran past "
                          f"{timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise ChildFailed(f"{spec['workload']} ({spec['mode']}) exited "
                          f"{proc.returncode}:\n{tail}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """All processes of one workload run: set-up probes and the measuring
    run, or the single traced run."""
    deadline = time.monotonic() + DEADLINE_S
    spec = {"workload": name, "seed": seed, "seconds": seconds}
    if trace:
        return _child(dict(spec, mode="trace"), DEADLINE_S)
    setups = [_child(dict(spec, mode="setup"), deadline - time.monotonic())["setup_s"]
              for _ in range(SETUP_PROBES)]
    result = _child(dict(spec, mode="run"), deadline - time.monotonic())
    setups.append(result["setup_s"])
    result["metrics"] = {
        "setup_s": {"value": median(setups), "unit": "s", "n": len(setups)},
        **result["metrics"],
    }
    result["samples"]["setup_s"] = setups
    return result


def _environment() -> Dict[str, Any]:
    from benchmarks.perfgate import calibrate

    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        # Context only: no metric is normalized by it.
        "perfgate_calibration_ops_per_s": calibrate(),
    }


def _report(results: Dict[str, Dict[str, Any]], seed: int, trace: bool) -> Dict[str, Any]:
    report = {"seed": seed, "trace": trace, "environment": _environment(),
              "workloads": {}, "failures": []}
    for name, r in results.items():
        entry = {k: r[k] for k in ("metrics", "attempted", "failed") if k in r}
        if not trace:
            entry["extras"] = r["extras"]
            entry["samples"] = {k: dict(summary(v), raw=v) for k, v in r["samples"].items()}
            entry.update({k: r[k] for k in ("cycle_units", "units_run", "timed_s")})
        report["workloads"][name] = entry
        report["failures"].extend(r["ledger"])
    return report


def chrome_trace(results: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    """Harness spans as Chrome trace events: one process per workload, a
    complete event for the workload and each unit, and one async span per
    op whose id is shared by the op's begin and end events."""
    events: List[Dict[str, Any]] = []
    for pid, (name, r) in enumerate(results.items(), start=1):
        sp = r["spans"]
        events.append({"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                       "args": {"name": name}})
        end = max(u["end"] for u in sp["units"])
        events.append({"ph": "X", "name": name, "cat": "workload", "pid": pid,
                       "tid": 0, "ts": 0.0, "dur": end * 1e6})
        for u in sp["units"]:
            events.append({"ph": "X", "name": f"unit {u['unit']}", "cat": "unit",
                           "pid": pid, "tid": 0, "ts": u["start"] * 1e6,
                           "dur": (u["end"] - u["start"]) * 1e6})
        for op in sp["ops"]:
            args = {"op_id": op["id"], "kind": op["kind"], "label": op["label"],
                    "unit": op["unit"], "sim_start_s": op["sim_start"],
                    "sim_end_s": op["sim_end"], "ok": op["ok"]}
            common = {"name": op["kind"], "cat": "op", "id": op["id"], "pid": pid,
                      "tid": 1}
            events.append(dict(common, ph="b", ts=op["start"] * 1e6, args=args))
            events.append(dict(common, ph="e", ts=op["end"] * 1e6))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def _fmt(value: Any) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, action="append",
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    ap.add_argument("--seconds", type=float, default=15.0,
                    help="measuring time per untraced run (default 15)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer traced run instead of the end-to-end one")
    ap.add_argument("--out", default=".bench_e2e/report.json",
                    help="report path; a traced run writes layers.json and "
                         "trace.json beside it")
    args = ap.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"benchmarks.e2e: no repro package under {SRC}", file=sys.stderr)
        return 2
    # SIGTERM unwinds like an exception, so a running child is killed and
    # reaped instead of outliving us.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    names = args.workload or list(WORKLOADS)
    trace = bool(args.trace)

    results: Dict[str, Dict[str, Any]] = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, trace)
    except ChildFailed as exc:
        print(f"benchmarks.e2e: {exc}", file=sys.stderr)
        return 1

    final: Dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, r in results.items():
        for metric, m in r["metrics"].items():
            n = f" n={m['n']}" if m.get("n") is not None else ""
            print(f"{name} {metric} {_fmt(m['value'])} {m['unit']}{n}")
            key = metric if len(results) == 1 else f"{name}.{metric}"
            final["metrics"][key] = {"value": m["value"], "unit": m["unit"]}
        for metric, m in r.get("extras", {}).items():
            print(f"{name} {metric} {_fmt(m['value'])} {m['unit']} n={m['n']}")
        final["attempted"] += r["attempted"]
        final["failed"] += r["failed"]
        for f in r["ledger"]:
            print(f"{name} FAILED {f['op']} ({f['kind']}) unit {f['unit']}: "
                  f"{f['error_type']}")
    final["correct"] = final["failed"] == 0

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(_report(results, args.seed, trace), indent=1) + "\n")
    if trace:
        layers = {name: r["metrics"] for name, r in results.items()}
        (out.parent / "layers.json").write_text(json.dumps(layers, indent=1) + "\n")
        (out.parent / "trace.json").write_text(json.dumps(chrome_trace(results)) + "\n")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
