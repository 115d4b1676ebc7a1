#!/usr/bin/env python
"""Kernel performance gate: measure hot-path throughput and fail on regression.

Runs the kernel microbenchmark workloads (event dispatch, channel ping-pong
with and without back-pressure, timer storm, and a full snapshot cycle),
writes a machine-readable ``BENCH_kernel.json``, and — when given a baseline
— fails with exit code 1 if any workload's throughput drops below
``threshold`` times the baseline. ``snapshot_cycle`` and ``fleet_sweep``
also report ``peak_alloc_kb``, their traced allocation peak, beside
throughput; it is informational and not gated.

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
import tracemalloc
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


def wl_concurrent_checkpoints(n_procs=4):
    """N offload processes on one card checkpointed concurrently through
    the operation manager: pause/capture pipelines overlapping on one
    daemon, completions demultiplexed by correlation id. Exercises the
    ops-layer hot path (state transitions, endpoint demux, wait_all) on
    top of the full stack; ops = kernel events, like wl_snapshot_cycle.
    """
    from repro.coi import OffloadBinary, OffloadFunction
    from repro.hw import MB
    from repro.snapify import snapify_t, snapshot_application
    from repro.testbed import XeonPhiServer, offload_process

    sim = Simulator()
    server = XeonPhiServer(sim=sim)
    snaps = []

    def setup(s):
        for i in range(n_procs):
            binary = OffloadBinary(
                f"cc{i}.so", 8 * MB,
                {"step": OffloadFunction("step", duration=0.05)},
            )
            coiproc, _ = yield from offload_process(
                server, f"cc{i}", binary, buffers=[(4 * MB, i + 1)]
            )
            snaps.append(snapify_t(snapshot_path=f"/bench/cc{i}", coiproc=coiproc))

    server.run(setup(sim))

    def driver(s):
        return (yield from snapshot_application(snaps, kind="checkpoint"))

    results = server.run(driver(sim))
    assert all(r.ok for r in results), "concurrent checkpoint failed"
    return next(sim._seq)  # total kernel events scheduled


def wl_remote_checkpoint(n_files=6):
    """Fault-free resilient transfers off a card through TransferManager:
    proves the retry/fallback machinery adds no overhead when nothing
    fails (every file must go first-try over Snapify-IO). ops = kernel
    events, like wl_snapshot_cycle.
    """
    from repro.hw import MB
    from repro.snapify import transfer_snapshot
    from repro.testbed import XeonPhiServer

    sim = Simulator()
    server = XeonPhiServer(sim=sim)

    def driver(s):
        src_os = server.phi_os(0)
        yield from src_os.fs.write("/bench/src", 64 * MB, payload=["rc"])
        results = []
        for i in range(n_files):
            res = yield from transfer_snapshot(
                src_os, 0, "/bench/src", f"/bench/dst{i}", kind="remote-checkpoint"
            )
            results.append(res)
        return results

    results = server.run(driver(sim))
    assert all(
        r.ok and r.channel == "snapifyio" and r.attempts == 1 for r in results
    ), "fault-free transfer retried or degraded"
    return next(sim._seq)  # total kernel events scheduled


def wl_incremental_checkpoint(n_epochs=5, buffer_mb=64):
    """Incremental capture economics: a ~5%-dirty delta epoch must cost
    well under a full capture of the same process.

    Runs one full (classic, Snapify-IO) capture, then an incremental base
    plus ``n_epochs`` delta captures into the memory tier, dirtying ~5% of
    every region between epochs. The gate asserts the mean delta epoch's
    *capture cost* (the post-drain phases: page walk + replication or
    transfer; the pause phase is a fixed protocol cost identical on both
    paths) is >= 3x cheaper in simulated seconds than the full capture —
    the whole point of dirty-page tracking — and that deltas ship a small
    fraction of the logical image. ops = kernel events, like
    wl_snapshot_cycle; the simulated costs and speedup ride in ``extras``.
    """
    from repro.coi import OffloadBinary, OffloadFunction
    from repro.hw import MB
    from repro.snapify import snapify_t
    from repro.snapify.ops import capture_sequence
    from repro.snapify_io.memtier import MemoryTier
    from repro.testbed import XeonPhiServer, offload_process

    sim = Simulator()
    server = XeonPhiServer(sim=sim)
    binary = OffloadBinary(
        "inc.so", 8 * MB, {"step": OffloadFunction("step", duration=0.05)}
    )

    def setup(s):
        coiproc, _ = yield from offload_process(
            server, "inc", binary, buffers=[(buffer_mb * MB, 1)]
        )
        return coiproc

    coiproc = server.run(setup(sim))
    MemoryTier.of(sim).register_server(server)

    def capture_cost(result):
        # The phases dirty tracking changes: everything after the drain
        # (page walk + replicate/transfer). Pausing is a fixed protocol
        # cost identical on both paths.
        return sum(
            result.phases.get(p, 0.0)
            for p in ("capturing", "capturing_delta", "replicating", "transferring")
        )

    def driver(s):
        snap_full = snapify_t("/bench/inc_full", coiproc=coiproc)
        full_cost = capture_cost((yield from capture_sequence(snap_full)))
        snap = snapify_t("/bench/inc_tier", coiproc=coiproc, incremental=True)
        base_cost = capture_cost((yield from capture_sequence(snap)))
        delta_cost, frac = [], []
        for epoch in range(n_epochs):
            for region in coiproc.offload_proc.regions.values():
                span = max(1, region.size // 20)  # ~5% of the region
                offset = (epoch * 7919 * 4096) % max(1, region.size - span)
                region.write(offset, span)
            result = yield from capture_sequence(snap)
            delta_cost.append(capture_cost(result))
            frac.append(result.delta_bytes / result.image_bytes)
        return full_cost, base_cost, delta_cost, frac

    full_cost, base_cost, delta_cost, frac = server.run(driver(sim))
    mean_delta = sum(delta_cost) / len(delta_cost)
    speedup = full_cost / mean_delta
    assert speedup >= 3.0, (
        f"5%-dirty delta capture only {speedup:.2f}x cheaper than full "
        f"({mean_delta:.4f}s vs {full_cost:.4f}s simulated)"
    )
    assert max(frac) < 0.5, f"delta shipped {max(frac):.0%} of the logical image"
    wl_incremental_checkpoint.extras = {
        "full_capture_sim_s": round(full_cost, 6),
        "base_capture_sim_s": round(base_cost, 6),
        "mean_delta_sim_s": round(mean_delta, 6),
        "delta_speedup_x": round(speedup, 2),
        "mean_dirty_frac": round(sum(frac) / len(frac), 4),
    }
    return next(sim._seq)  # total kernel events scheduled


def wl_fleet_sweep(topology="rack32", ops_per_card=4):
    """The fleet control plane at scale: a rack of cards driven through one
    admission-controlled FleetManager (mixed checkpoint/swap/migrate load,
    cards * ops_per_card keyed operations). ops = kernel events, like
    wl_snapshot_cycle; the p99 queue wait (simulated seconds a ticket sat
    in the priority queues) rides along in ``extras`` for the CI summary.
    """
    from repro.snapify.fleet import FleetManager, fleet_sweep
    from repro.testbed import XeonPhiFleet

    fleet = XeonPhiFleet(topology)
    manager = FleetManager(fleet, max_in_flight=16, per_card_limit=2)

    def driver():
        return (yield from fleet_sweep(fleet, manager, ops_per_card=ops_per_card))

    result = fleet.run(driver())
    assert result.ok, f"fleet sweep failed: {result.summary()}"
    assert manager.hwm_in_flight <= manager.max_in_flight, "admission cap breached"
    waits = sorted(t.queue_wait for t in result.tickets.values()
                   if t.queue_wait is not None)
    p99 = waits[min(len(waits) - 1, int(len(waits) * 0.99))] if waits else 0.0
    wl_fleet_sweep.extras = {
        "fleet_ops": len(result),
        "p99_queue_wait_sim_s": round(p99, 6),
    }
    return next(fleet.sim._seq)  # total kernel events scheduled


def wl_telemetry_overhead(topology="rack8", ops_per_card=4, interval=0.05):
    """The telemetry tax: the same fleet sweep with the sampler off and on.

    Runs ``wl_fleet_sweep``'s workload twice — stock, then with the
    :class:`~repro.obs.timeseries.TimeSeriesRecorder` installed at a
    production interval — and asserts the enabled sampler inflates the
    kernel event count by < 5%. The score is the telemetry-on run's event
    count, so a chatty sampler shows up both in the assertion and as a
    throughput regression.
    """
    from repro.obs.timeseries import TelemetryConfig, TimeSeriesRecorder
    from repro.snapify.fleet import FleetManager, fleet_sweep
    from repro.testbed import XeonPhiFleet

    def sweep(telemetry):
        fleet = XeonPhiFleet(topology)
        recorder = None
        if telemetry:
            recorder = TimeSeriesRecorder.install(
                fleet.sim, TelemetryConfig(interval=interval)
            )
        manager = FleetManager(fleet, max_in_flight=16, per_card_limit=2)

        def driver():
            result = yield from fleet_sweep(fleet, manager,
                                            ops_per_card=ops_per_card)
            if recorder is not None:
                recorder.stop()
            return result

        result = fleet.run(driver())
        assert result.ok, f"fleet sweep failed: {result.summary()}"
        return next(fleet.sim._seq)

    events_off = sweep(telemetry=False)
    events_on = sweep(telemetry=True)
    overhead = (events_on - events_off) / events_off
    assert overhead < 0.05, (
        f"telemetry sampler overhead {overhead:.1%} >= 5% "
        f"({events_on} vs {events_off} kernel events)"
    )
    wl_telemetry_overhead.extras = {
        "events_off": events_off,
        "events_on": events_on,
        "overhead_pct": round(overhead * 100, 3),
    }
    return events_on


def wl_plugin_dispatch(iterations=20):
    """The checkpoint-content plugin tax: the same fault-free checkpoint
    cycle with the default, empty registry and with every standard content
    plugin registered (the app owns none of the plugged resources, so the
    plugins all decline). The registry walk, the agent's drain phase, and
    the COI metadata image must together inflate the kernel event count by
    < 2%. The score is the plugins-on run's event count, so dispatch bloat
    shows up both in the assertion and as a throughput regression.
    """
    from dataclasses import replace

    from repro.apps import OPENMP_BENCHMARKS, OffloadApplication
    from repro.blcr.plugins import register_standard_plugins
    from repro.snapify import checkpoint_offload_app, snapify_t
    from repro.testbed import XeonPhiServer

    def cycle(with_plugins):
        sim = Simulator()
        server = XeonPhiServer(sim=sim)
        if with_plugins:
            register_standard_plugins(server.phi_os(0))
            register_standard_plugins(server.phi_os(1))
        profile = replace(OPENMP_BENCHMARKS["MC"], iterations=iterations)
        app = OffloadApplication(server, profile)

        def driver(s):
            yield from app.launch()
            yield s.timeout(0.3)
            snap = snapify_t("/bench/plug", coiproc=app.coiproc)
            yield from checkpoint_offload_app(snap)
            yield app.host_proc.main_thread.done

        server.run(driver(sim))
        assert app.verify(), "plugin dispatch run corrupted the application"
        return next(sim._seq)

    events_off = cycle(with_plugins=False)
    events_on = cycle(with_plugins=True)
    overhead = (events_on - events_off) / events_off
    assert overhead < 0.02, (
        f"plugin dispatch overhead {overhead:.2%} >= 2% on the fault-free "
        f"checkpoint path ({events_on} vs {events_off} kernel events)"
    )
    wl_plugin_dispatch.extras = {
        "events_off": events_off,
        "events_on": events_on,
        "overhead_pct": round(overhead * 100, 3),
    }
    return events_on


def wl_replication():
    """Useful-work throughput of a replicated (R=2) job surviving a card
    failure: the faulted replication arm of the resilience study. Asserts
    the failure costs zero restarts and that the team-message ledger and
    dedup accounting balance. ops = kernel events, like wl_snapshot_cycle;
    the study's headline numbers ride in ``extras`` for the CI summary.
    """
    from repro.sched.study import run_mode

    clean = run_mode("replication", faulted=False)
    fault = run_mode("replication", faulted=True,
                     fault_at=0.6 * clean["elapsed"])
    assert fault["verified"], "replicated job finished with a bad checksum"
    assert fault["restarts"] == 0, "replication needed a restart"
    assert fault["drops"] == 1, f"expected one replica drop, got {fault['drops']}"
    assert fault["ledger_balanced"], "team-message copy ledger out of balance"
    assert fault["duplicate_deliveries"] == 0, "a logical message delivered twice"
    slowdown = fault["elapsed"] / clean["elapsed"]
    assert slowdown < 1.1, f"card failure cost {slowdown:.2f}x under replication"
    wl_replication.extras = {
        "clean_sim_s": round(clean["elapsed"], 6),
        "faulted_sim_s": round(fault["elapsed"], 6),
        "slowdown_x": round(slowdown, 3),
        "useful_iterations": fault["iterations"],
        "executed_iterations": fault["executed"],
    }
    return fault["events"]


WORKLOADS = {
    "event_dispatch": wl_event_dispatch,
    "ping_pong": wl_ping_pong,
    "ping_pong_bounded": wl_ping_pong_bounded,
    "timer_storm": wl_timer_storm,
    "snapshot_cycle": wl_snapshot_cycle,
    "concurrent_checkpoints": wl_concurrent_checkpoints,
    "remote_checkpoint": wl_remote_checkpoint,
    "incremental_checkpoint": wl_incremental_checkpoint,
    "fleet_sweep": wl_fleet_sweep,
    "telemetry_overhead": wl_telemetry_overhead,
    "plugin_dispatch": wl_plugin_dispatch,
    "replication": wl_replication,
}


#: Workloads that also report ``peak_alloc_kb``, the peak bytes allocated
#: by one run under ``tracemalloc``. Informational: it is measured in a
#: separate run after the timed repetitions, and it is never gated.
FOOTPRINT_WORKLOADS = ("snapshot_cycle", "fleet_sweep")


def peak_alloc_kb(fn):
    """Peak traced allocation of one run of ``fn``, in KiB."""
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return round(peak / 1024)


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
        extras = getattr(fn, "extras", None)
        if extras:
            results[name].update(extras)
        if name in FOOTPRINT_WORKLOADS:
            results[name]["peak_alloc_kb"] = peak_alloc_kb(fn)
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
        "| workload | ops/s | normalized | notes |",
        "| --- | ---: | ---: | --- |",
    ]
    for name, res in report["results"].items():
        notes = ", ".join(
            f"{k}={v}" for k, v in res.items()
            if k not in ("ops", "ops_per_sec", "normalized")
        )
        lines.append(
            f"| {name} | {res['ops_per_sec']:,.0f} | "
            f"{res['normalized']:.4f} | {notes} |"
        )
    lines.append(
        f"| _calibration_ | {report['calibration_ops_per_sec']:,.0f} | 1.0000 | |"
    )
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
