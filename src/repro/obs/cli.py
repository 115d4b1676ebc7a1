"""The ``snapify`` command-line front end (``snapify trace``, ``snapify fuzz``).

``snapify trace`` runs one scenario of the fuzz catalogue
(:func:`repro.check.scenarios.run_scenario`) with tracing on, checks every
invariant oracle, and turns the span tree into the paper's Figure
9/10-style phase breakdown table (one per distinct root span name),
optionally exporting the whole run as Chrome trace-event JSON (loadable in
Perfetto / ``chrome://tracing``). It exits 1 if an oracle fails:

    snapify trace                              # swap-out + swap-in breakdown
    snapify trace --scenario checkpoint        # Fig. 5 checkpoint path
    snapify trace --scenario migrate --json trace.json
    snapify trace --scenario concurrent_checkpoint

``snapify fuzz`` sweeps the protocol scenarios across perturbed schedules
and fault plans, checking every invariant oracle (see :mod:`repro.check`),
and replays failure artifacts:

    snapify fuzz --seeds 50                    # all scenarios x 50 seeds
    snapify fuzz --scenario migrate --seeds 10
    snapify fuzz --scenario transfer_fault --seeds 50   # 4 fault modes x 50
    snapify fuzz --seeds 200 --artifact-dir fuzz_artifacts
    snapify fuzz --replay fuzz_artifacts/repro_migrate_seed7.json

``snapify fleet`` and ``snapify top`` run the catalogue's oracle-checked
``fleet:<topology>`` scenario — health sweep, a mixed checkpoint/swap/migrate
sweep through the admission-controlled
:class:`~repro.snapify.fleet.FleetManager` (4 ops per card, 8 in flight,
2 per card), closing health sweep — and exit 1 if an oracle fails.
``fleet`` prints the per-card outcome table plus the closing health sweep;
``top`` installs the telemetry sampler
(:class:`~repro.obs.timeseries.TimeSeriesRecorder` + the stock SLOs) and
renders a per-card dashboard — in-flight operations, queue depth, phase
p99s, firing alerts — plus Prometheus-text / JSON exports. ``--fail-card``
adds the same ``fleet_card_failure`` fault-plan entry the fuzzer uses; the
resulting partial failure is a passing ``faulted`` run:

    snapify fleet                              # rack8
    snapify fleet --topology rack32 --metrics
    snapify top                                # rack8 dashboard frames
    snapify top --export prom --out metrics.prom
    snapify top --fail-card 3 --export json    # inject a card failure

Also reachable without installation as ``python -m repro.snapify trace``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

from .export import validate_trace_events, write_chrome_trace
from .phases import PhaseBreakdown, build_span_tree, operation_table
from .registry import MetricsRegistry


def trace_command(args: argparse.Namespace) -> int:
    from ..check.scenarios import run_scenario
    from .timeseries import TimeSeriesRecorder

    def instrument(sim):
        TimeSeriesRecorder.install(sim, args.sample_interval)

    result = run_scenario(args.scenario, capture_trace=True,
                          instrument=instrument if args.sample_interval else None)
    sim = result.sim
    tracer = sim.trace

    # One breakdown per distinct root span name (its first finished
    # occurrence). A trace with no finished root span is a report, not a
    # crash: say so and keep going.
    roots, _ = build_span_tree(tracer)
    breakdowns: Dict[str, PhaseBreakdown] = {}
    for root in roots:
        if root.end is not None and root.name not in breakdowns:
            breakdowns[root.name] = PhaseBreakdown(root)
    for name in dict.fromkeys(r.name for r in roots if r.name not in breakdowns):
        print(f"(no phase breakdown for {name!r}: its root span never finished)")
    if not roots:
        print(f"(no phase breakdown: {args.scenario!r} recorded no root span)")
    for breakdown in breakdowns.values():
        print()
        print(breakdown.render())

    # The state-machine view: one row per operation, phases from its state
    # history (distinguishes concurrent operations by correlation id).
    # Always rendered — a run with no operation prints the empty table
    # with a note instead of dying.
    print()
    print(operation_table(sim).render())

    if args.metrics:
        snap = MetricsRegistry.of(sim).snapshot()
        print(f"\n== Metrics at t={snap['time']:.6f}s ==")
        for name, value in snap["counters"].items():
            print(f"  counter    {name:40s} {value}")
        for name, value in snap["gauges"].items():
            print(f"  gauge      {name:40s} {value}")
        for name, summary in snap["histograms"].items():
            print(f"  histogram  {name:40s} {summary}")

    if args.json:
        doc = write_chrome_trace(tracer, args.json)
        n = validate_trace_events(doc)
        print(f"\nwrote {args.json}: {n} trace events "
              f"({len(tracer.records)} records) — load it at ui.perfetto.dev")

    if not result.ok:
        print(f"\n{result.summary()}")
        return 1
    # The accounting identity the breakdown promises: union of components
    # plus the unattributed gap reproduces the end-to-end latency.
    for root_name, breakdown in breakdowns.items():
        drift = abs(breakdown.accounted - breakdown.total)
        limit = 0.01 * breakdown.total
        if drift > limit:
            print(f"WARNING: {root_name} components sum to "
                  f"{breakdown.accounted:.6f}s but end-to-end is "
                  f"{breakdown.total:.6f}s", file=sys.stderr)
            return 1
    return 0


def fleet_command(args: argparse.Namespace) -> int:
    from ..check.scenarios import run_scenario
    from ..metrics import ResultTable, fmt_time
    from ..snapify.fleet import DONE, FleetManager, FleetResult

    run = run_scenario(f"fleet:{args.topology}")
    for manager in FleetManager.all_of(run.sim):
        health = manager.last_health
        result = FleetResult({t.key: t for t in manager.tickets
                              if t.kind != "probe"})
        status = {h.card: h for h in health.entries}
        stragglers = {h.card for h in health.stragglers()}
        table = ResultTable(
            f"Fleet sweep: {args.topology}, {len(result)} ops "
            f"(caps: {manager.max_in_flight} in flight, "
            f"{manager.per_card_limit}/card)",
            ["card", "ops", "ok", "failed", "mean wait", "mean service", "health"],
        )
        for card, tickets in sorted(result.by_card().items()):
            done = [t for t in tickets if t.state == DONE]
            waits = [t.queue_wait for t in tickets if t.queue_wait is not None]
            services = [t.service_time for t in done if t.service_time is not None]
            h = status.get(card)
            verdict = ("-" if h is None else
                       f"FAILED: {h.error}" if not h.ok else
                       "straggler" if card in stragglers else "ok")
            table.add_row(
                card, len(tickets), len(done), len(tickets) - len(done),
                fmt_time(sum(waits) / len(waits)) if waits else "-",
                fmt_time(sum(services) / len(services)) if services else "-",
                verdict,
            )
        table.add_note(f"in-flight high-water {manager.hwm_in_flight}, "
                       f"busiest card {max(manager.hwm_per_card.values(), default=0)}")
        print()
        print(table.render())
        print()
        print(result.summary())
        print(health.summary())

        if args.metrics:
            snap = MetricsRegistry.of(run.sim).snapshot()
            print(f"\n== Metrics at t={snap['time']:.6f}s ==")
            for name, value in sorted(snap["counters"].items()):
                if name.startswith(manager.name):
                    print(f"  counter    {name:40s} {value}")
            for name, summary in sorted(snap["histograms"].items()):
                if name.startswith(manager.name):
                    print(f"  histogram  {name:40s} {summary}")
    print(run.summary())
    return 0 if run.ok else 1


def render_top_frame(recorder, manager) -> str:
    """One dashboard frame: the per-card table + the firing-alert lines."""
    from ..metrics import ResultTable, fmt_time

    table = ResultTable(
        f"snapify top — t={recorder.sim.now:8.3f}s  "
        f"in-flight {manager.in_flight}  queued {manager.queue_depth()}  "
        f"tick {recorder.stats.ticks}",
        ["card", "in-flight", "ops", "failed", "p99 pause", "p99 total", "alerts"],
    )
    engine = recorder.engine
    firing_by_card = {}
    firing_global = []
    if engine is not None:
        for key, alert in sorted(engine.firing.items()):
            if alert.card is not None:
                firing_by_card.setdefault(alert.card, []).append(alert.rule)
            else:
                firing_global.append(f"{alert.rule}: {alert.detail}")
    counts = recorder.card_failure_counts()
    for card in recorder.cards():
        pause = recorder.phase_digest("pausing", card)
        total = recorder.phase_digest("total", card)
        n_ops, n_failed = counts.get(card, (0, 0))
        table.add_row(
            card,
            manager._per_card.get(card, 0),
            n_ops,
            n_failed,
            fmt_time(pause.p99) if pause is not None and pause.p99 is not None else "-",
            fmt_time(total.p99) if total is not None and total.p99 is not None else "-",
            ",".join(firing_by_card.get(card, [])) or "-",
        )
    for line in firing_global:
        table.add_note(f"ALERT {line}")
    if engine is not None and not engine.firing:
        table.add_note("no alerts firing")
    return table.render()


def top_command(args: argparse.Namespace) -> int:
    import json as _json

    from ..check.scenarios import run_scenario
    from ..snapify.fleet import FleetManager
    from .export import prometheus_text, validate_prometheus_text
    from .slo import default_slos, parse_slo
    from .timeseries import TimeSeriesRecorder

    slos = [parse_slo(s) for s in args.slo] if args.slo else default_slos()
    frames: List[str] = []  # one dashboard per tick once the fleet is driven

    def on_tick(recorder):
        for manager in FleetManager.all_of(recorder.sim):
            frames.append(render_top_frame(recorder, manager))

    def instrument(sim):
        recorder = TimeSeriesRecorder.install(sim, args.interval, slos=slos)
        if args.frames > 0:
            recorder.on_tick.append(on_tick)

    faults = ([] if args.fail_card is None else
              [{"kind": "fleet_card_failure", "card": args.fail_card,
                "at": args.fail_at}])
    run = run_scenario(f"fleet:{args.topology}", faults=faults,
                       instrument=instrument)
    recorder = TimeSeriesRecorder.peek(run.sim)
    if frames:  # exactly --frames of them, evenly spaced over the ticks
        for k in range(1, args.frames + 1):
            print()
            print(frames[k * len(frames) // (args.frames + 1)])
    for manager in FleetManager.all_of(run.sim):
        print()
        print(render_top_frame(recorder, manager))
    engine = recorder.engine
    if engine.history:
        print()
        print("alert history:")
        for t, event, snap in engine.history:
            print(f"  {t:8.3f}s {event:7s} {snap['key']} ({snap['detail']})"
                  if event == "fire" else
                  f"  {t:8.3f}s {event:7s} {snap['key']}")

    if args.export == "prom":
        text = prometheus_text(run.sim, telemetry=recorder)
        validate_prometheus_text(text)
        _write_or_print(text, args.out)
    elif args.export == "json":
        doc = recorder.describe()
        for manager in FleetManager.all_of(run.sim):
            doc["fleet"] = manager.describe()
        _write_or_print(_json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    print(run.summary())
    return 0 if run.ok else 1


def _write_or_print(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        print(f"wrote {out} ({len(text.splitlines())} lines)")
    else:
        print(text, end="")


def fuzz_command(args: argparse.Namespace) -> int:
    from ..check import fuzz, replay_artifact
    from ..check.scenarios import scenario_names

    if args.replay:
        art, result = replay_artifact(args.replay)
        print(f"replaying {art.scenario} seed={art.seed} faults={list(art.faults)}")
        print(result.summary())
        if result.waitfor:
            print("wait-for graph:")
            for edge in result.waitfor:
                print(f"  {edge['thread']} -> {edge['event']!r} (owner: {edge['owner']})")
        interesting = [o for o in result.operations
                       if o.get("state") != "DONE" or o.get("error")]
        if interesting:
            print("operations:")
            for o in interesting:
                line = (f"  op {o['op']} ({o['kind']}, pid {o['pid']}) "
                        f"state={o['state']}")
                if o.get("error"):
                    line += f" error={o['error']}"
                print(line)
        if result.ok:
            print("replay did NOT reproduce a failure (run is clean)")
            return 0
        return 1

    names = scenario_names()
    if args.scenario:
        matching = [n for n in names if n == args.scenario or
                    n.startswith(args.scenario + ":")]
        if not matching:
            print(f"unknown scenario {args.scenario!r} (have {names})", file=sys.stderr)
            return 2
        names = matching

    def progress(result):
        if args.verbose or not result.ok:
            print(result.summary())

    report = fuzz(
        scenarios=names,
        seeds=range(args.seeds),
        artifact_dir=args.artifact_dir,
        fail_fast=args.fail_fast,
        progress=progress,
    )
    print(report.summary())
    if not report.ok and report.artifact_paths:
        print("replay a failure with:")
        print(f"  PYTHONPATH=src python -m repro.obs.cli fuzz --replay "
              f"{report.artifact_paths[0]}")
    return 0 if report.ok else 1


def _non_negative(text: str) -> float:
    value = float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0 (got {text})")
    return value


def _positive(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0 (got {text})")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1 (got {text})")
    return value


def main(argv: Optional[List[str]] = None) -> int:
    from ..check.scenarios import scenario_names
    from ..testbed import FLEET_TOPOLOGIES

    parser = argparse.ArgumentParser(
        prog="snapify", description="Snapify reproduction command-line tools"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    tr = sub.add_parser(
        "trace",
        help="run a traced Snapify operation and print its phase breakdown",
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    tr.add_argument("--scenario", choices=scenario_names(), default="swap",
                    metavar="NAME",
                    help="fuzz-catalogue scenario to run (default: swap; "
                         "any name `snapify fuzz` runs, e.g. checkpoint, "
                         "migrate, concurrent_checkpoint, fleet:rack8)")
    tr.add_argument("--json", metavar="PATH", default=None,
                    help="write Chrome trace-event JSON to PATH")
    tr.add_argument("--metrics", action="store_true",
                    help="print the final metrics-registry snapshot")
    tr.add_argument("--sample-interval", type=_non_negative, default=0.01,
                    help="simulated seconds between metric samples "
                         "(0 disables counter tracks; default 0.01)")
    tr.set_defaults(fn=trace_command)
    fz = sub.add_parser(
        "fuzz",
        help="sweep protocol scenarios across perturbed schedules and check "
             "invariant oracles",
    )
    fz.add_argument("--seeds", type=_positive_int, default=10,
                    help="schedule seeds per scenario: 0..N-1 (default 10)")
    fz.add_argument("--scenario", default=None,
                    help="restrict to one scenario (e.g. migrate, "
                         "checkpoint_fault); default: all")
    fz.add_argument("--artifact-dir", default=None, metavar="DIR",
                    help="write a repro artifact per failure into DIR")
    fz.add_argument("--replay", default=None, metavar="ARTIFACT",
                    help="replay a failure artifact instead of sweeping")
    fz.add_argument("--fail-fast", action="store_true",
                    help="stop at the first failing run")
    fz.add_argument("--verbose", action="store_true",
                    help="print every run, not just failures")
    fz.set_defaults(fn=fuzz_command)
    topologies = sorted(FLEET_TOPOLOGIES)
    fl = sub.add_parser(
        "fleet",
        help="run the fleet:<topology> scenario (a mixed checkpoint/swap/"
             "migrate sweep, oracle-checked) and print the per-card table",
    )
    fl.add_argument("--topology", choices=topologies, default="rack8",
                    help="fleet topology name (default rack8)")
    fl.add_argument("--metrics", action="store_true",
                    help="print the fleet's metrics instruments")
    fl.set_defaults(fn=fleet_command)
    tp = sub.add_parser(
        "top",
        help="run the fleet:<topology> scenario with telemetry: a per-card "
             "dashboard (phase p99s, queue depths, firing alerts) and "
             "prom/json export",
    )
    tp.add_argument("--topology", choices=topologies, default="rack8",
                    help="fleet topology name (default rack8)")
    tp.add_argument("--interval", type=_positive, default=0.05,
                    help="simulated seconds between telemetry samples "
                         "(default 0.05)")
    tp.add_argument("--frames", type=int, default=3,
                    help="dashboard frames printed, evenly spaced over the "
                         "run, before the final one (default 3)")
    tp.add_argument("--fail-card", type=int, default=None, metavar="N",
                    help="inject a failure of the N-th fleet card")
    tp.add_argument("--fail-at", type=float, default=1.0,
                    help="simulated seconds after fleet boot to fail the card "
                         "(default 1.0)")
    tp.add_argument("--slo", action="append", default=[], metavar="SPEC",
                    help='SLO override, repeatable (e.g. "pausing p99 < 50ms",'
                         ' "burn_rate < 0.25", "straggler z > 3.5")')
    tp.add_argument("--export", choices=("prom", "json"), default=None,
                    help="also emit Prometheus text or the JSON telemetry "
                         "summary")
    tp.add_argument("--out", default=None, metavar="PATH",
                    help="write the --export payload to PATH instead of stdout")
    tp.set_defaults(fn=top_command)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
