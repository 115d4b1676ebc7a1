#!/usr/bin/env python
"""Kernel performance gate: measure hot-path throughput and fail on regression.

Runs the kernel microbenchmark workloads (event dispatch, channel ping-pong
with and without back-pressure, timer storm, and a full snapshot cycle),
writes a machine-readable ``BENCH_kernel.json``, and — when given a baseline
— fails with exit code 1 if any workload's throughput drops below
``threshold`` times the baseline. Full-stack workloads live elsewhere:
``benchmarks/e2e`` measures them end to end, and their simulated bounds are
tier-1 tests.

Raw ops/sec depends on the machine, so scores are *normalized* against a
fixed pure-Python calibration loop measured in the same process: the gate
compares ``ops_per_sec / calibration_ops_per_sec``, which is stable across
hosts of different speeds (e.g. a laptop baseline vs. a CI runner).

Usage::

    python benchmarks/perfgate.py --out BENCH_kernel.json \
        --baseline benchmarks/baseline.json --threshold 0.6

    # refresh the checked-in baseline after an intentional kernel change
    python benchmarks/perfgate.py --update-baseline benchmarks/baseline.json
"""

import argparse
import json
import platform
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.sim import Channel, Simulator  # noqa: E402

SCHEMA = "repro-kernel-bench/1"


# ---------------------------------------------------------------------------
# Workloads. Each returns the number of "operations" performed; the runner
# times it. Sizes aim for ~0.1 s per run on a development machine.
# ---------------------------------------------------------------------------


def wl_event_dispatch(n=50_000):
    """Schedule-and-wait on n fresh events: pure heap + resume cost."""
    sim = Simulator()

    def worker(s):
        for _ in range(n):
            ev = s.event()
            s.schedule(0.0, ev.succeed, None)
            yield ev

    sim.spawn(worker(sim))
    sim.run()
    return n


def wl_ping_pong(n=20_000, capacity=None):
    """n round trips over two channels: the canonical send/recv pair cost."""
    sim = Simulator()
    a = Channel(sim, "a", capacity=capacity)
    b = Channel(sim, "b", capacity=capacity)

    def ping(s):
        for i in range(n):
            yield a.send(i)
            yield b.recv()

    def pong(s):
        for _ in range(n):
            v = yield a.recv()
            yield b.send(v)

    sim.spawn(ping(sim))
    sim.spawn(pong(sim))
    sim.run()
    return n


def wl_ping_pong_bounded(n=20_000):
    return wl_ping_pong(n, capacity=1)


def wl_timer_storm(n_threads=2_000, ticks=20):
    """Many threads sleeping on staggered timers: heap churn under load."""
    sim = Simulator()

    def worker(s, delay):
        for _ in range(ticks):
            yield s.timeout(delay)

    for i in range(n_threads):
        sim.spawn(worker(sim, 0.1 + i * 1e-4))
    sim.run()
    return n_threads * ticks


def wl_snapshot_cycle():
    """A full Fig-10-style cycle: boot, offload app, migrate, finish.

    Exercises every layer above the kernel (OS, SCIF, COI, Snapify); the
    operation count is the number of scheduled kernel events, so the score
    is directly comparable to the synthetic workloads.
    """
    from dataclasses import replace

    from repro.apps import OPENMP_BENCHMARKS, OffloadApplication
    from repro.snapify import MIGRATE, snapify_command
    from repro.testbed import XeonPhiServer

    sim = Simulator()
    server = XeonPhiServer(sim=sim)
    profile = replace(OPENMP_BENCHMARKS["MC"], iterations=30)
    app = OffloadApplication(server, profile)

    def driver(s):
        yield from app.launch()
        yield s.timeout(0.3)
        done = snapify_command(app.host_proc, MIGRATE, engine=server.engine(1))
        yield done
        yield app.host_proc.main_thread.done

    server.run(driver(sim))
    assert app.verify(), "snapshot cycle corrupted the application"
    return next(sim._seq)  # total kernel events scheduled


WORKLOADS = {
    "event_dispatch": wl_event_dispatch,
    "ping_pong": wl_ping_pong,
    "ping_pong_bounded": wl_ping_pong_bounded,
    "timer_storm": wl_timer_storm,
    "snapshot_cycle": wl_snapshot_cycle,
}


def calibrate(n=400_000):
    """Fixed pure-Python mix (calls, dict, list) to measure machine speed."""
    import heapq

    def probe(i, acc):
        return acc + (i & 7)

    t0 = time.perf_counter()
    heap, d, acc = [], {}, 0
    for i in range(n):
        acc = probe(i, acc)
        d[i & 255] = i
        heapq.heappush(heap, (i ^ 0x2A, i))
        if i & 1:
            heapq.heappop(heap)
    dt = time.perf_counter() - t0
    assert acc and d and heap
    return n / dt


# ---------------------------------------------------------------------------
# Runner / gate
# ---------------------------------------------------------------------------


def run_benchmarks(repeat=3):
    results = {}
    cal = max(calibrate() for _ in range(repeat))
    for name, fn in WORKLOADS.items():
        best_ops_per_sec = 0.0
        ops = 0
        fn()  # warmup
        for _ in range(repeat):
            t0 = time.perf_counter()
            ops = fn()
            dt = time.perf_counter() - t0
            best_ops_per_sec = max(best_ops_per_sec, ops / dt)
        results[name] = {
            "ops": ops,
            "ops_per_sec": round(best_ops_per_sec, 1),
            "normalized": round(best_ops_per_sec / cal, 6),
        }
    return {
        "schema": SCHEMA,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "calibration_ops_per_sec": round(cal, 1),
        "results": results,
    }


def check_against_baseline(report, baseline, threshold):
    """Return a list of human-readable regression messages (empty = pass)."""
    failures = []
    for name, base in baseline.get("results", {}).items():
        now = report["results"].get(name)
        if now is None:
            failures.append(f"{name}: workload missing from current run")
            continue
        floor = base["normalized"] * threshold
        if now["normalized"] < floor:
            failures.append(
                f"{name}: normalized score {now['normalized']:.4f} < "
                f"{floor:.4f} ({threshold:.2f}x of baseline {base['normalized']:.4f})"
            )
    return failures


def markdown_summary(report, failures=None, threshold=None):
    """The report as a GitHub-flavored markdown score table."""
    lines = [
        "### Kernel performance gate",
        "",
        "| workload | ops/s | normalized |",
        "| --- | ---: | ---: |",
    ]
    for name, res in report["results"].items():
        lines.append(f"| {name} | {res['ops_per_sec']:,.0f} | {res['normalized']:.4f} |")
    lines.append(f"| _calibration_ | {report['calibration_ops_per_sec']:,.0f} | 1.0000 |")
    lines.append("")
    if failures:
        lines.append(f"**PERFGATE FAIL** (threshold {threshold:.2f}x of baseline):")
        lines.extend(f"- {f}" for f in failures)
    elif threshold is not None:
        lines.append(f"PERFGATE OK (threshold {threshold:.2f}x of baseline)")
    lines.append("")
    return "\n".join(lines)


def emit_summary(markdown):
    """Append to ``$GITHUB_STEP_SUMMARY`` when set, else print to stdout."""
    import os

    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if path:
        with open(path, "a") as f:
            f.write(markdown + "\n")
        print(f"wrote score table to step summary ({path})")
    else:
        print(markdown)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="BENCH_kernel.json", help="report output path")
    ap.add_argument("--baseline", default=None, help="baseline JSON to gate against")
    ap.add_argument(
        "--threshold",
        type=float,
        default=0.6,
        help="fail if normalized score < threshold * baseline (default 0.6)",
    )
    ap.add_argument("--repeat", type=int, default=3, help="repetitions, best-of (default 3)")
    ap.add_argument(
        "--update-baseline",
        metavar="PATH",
        default=None,
        help="write the report to PATH as the new baseline and exit",
    )
    args = ap.parse_args(argv)

    if args.repeat < 1:
        ap.error(f"--repeat must be >= 1 (got {args.repeat})")
    if args.baseline and not Path(args.baseline).is_file():
        ap.error(f"baseline file not found: {args.baseline}")

    report = run_benchmarks(repeat=args.repeat)
    for name, res in report["results"].items():
        score = f"{res['ops_per_sec']:>14,.0f}"
        print(f"  {name:20s} {score} ops/s   normalized {res['normalized']:.4f}")
    print(f"  {'calibration':20s} {report['calibration_ops_per_sec']:>14,.0f} ops/s")

    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")

    if args.update_baseline:
        Path(args.update_baseline).write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote new baseline {args.update_baseline}")
        return 0

    failures = []
    threshold = None
    if args.baseline:
        threshold = args.threshold
        baseline = json.loads(Path(args.baseline).read_text())
        failures = check_against_baseline(report, baseline, args.threshold)
    emit_summary(markdown_summary(report, failures, threshold))
    if failures:
        print("PERFGATE FAIL:")
        for f in failures:
            print(f"  {f}")
        return 1
    if args.baseline:
        print(f"PERFGATE OK (threshold {args.threshold:.2f}x of baseline)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
