"""CLI coverage for ``repro.obs.cli``: trace edge cases, fleet, top, exports.

The ``snapify top`` dashboard and its ``--export prom``/``--export json``
payloads are exercised end to end through ``main()``; ``snapify trace`` is
pinned to its friendly degraded paths (no finished root span, no
operation) instead of a stack trace, and its operation table to the
operation manager's pids and cards. ``trace``, ``fleet`` and ``top`` all run
fuzz-catalogue scenarios (exit 1 when an oracle fails) and settle their
telemetry sampler; bad ``--seeds`` / ``--sample-interval`` / ``--interval``
/ ``--topology`` values are argparse errors; the histogram bucket export
round-trips through the Prometheus text parser/validator.
"""

import json
import types

import pytest

from repro.obs.cli import main as cli_main
from repro.obs.export import (
    parse_prometheus_text,
    prometheus_text,
    validate_prometheus_text,
)
from repro.obs.phases import operation_table
from repro.obs.registry import MetricsRegistry
from repro.obs.timeseries import TimeSeriesRecorder
from repro.sim import Simulator


# ---------------------------------------------------------------------------
# snapify trace: degraded inputs must report, not crash
# ---------------------------------------------------------------------------


def test_operation_table_with_zero_op_records_renders_note():
    sim = Simulator(trace=True)
    table = operation_table(sim)
    text = table.render()
    assert "no Snapify operation ran" in text


def test_trace_command_with_empty_trace_exits_zero(monkeypatch, capsys):
    """A run that produced no spans and no operations still prints the
    (empty) operation table and a friendly note instead of a breakdown."""
    import repro.check.scenarios as scenarios

    def fake_run(name, capture_trace=False, instrument=None):
        return types.SimpleNamespace(ok=True, sim=Simulator(trace=True))

    monkeypatch.setattr(scenarios, "run_scenario", fake_run)
    rc = cli_main(["trace", "--scenario", "checkpoint"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "no phase breakdown" in out
    assert "no Snapify operation ran" in out


def test_trace_command_prints_card_column(capsys):
    rc = cli_main(["trace", "--scenario", "checkpoint", "--sample-interval", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "card" in out        # operation-table column
    assert "n0.mic0" in out     # the op ran on card 0 of node 0


def _op_rows(out):
    """The operation table's rows as {op id: [cells]}."""
    table = out[out.index("== Operations"):]
    rows = {}
    for line in table.splitlines()[3:]:
        cells = [c.strip() for c in line.split("|")]
        if len(cells) < 13 or not cells[0].isdigit():
            break
        rows[int(cells[0])] = cells
    return rows


def test_trace_restart_row_names_the_restored_process_and_card(capsys):
    from repro.check.scenarios import run_scenario
    from repro.snapify.ops import OperationManager

    rc = cli_main(["trace", "--scenario", "restart", "--sample-interval", "0"])
    rows = _op_rows(capsys.readouterr().out)
    assert rc == 0
    run = run_scenario("restart", capture_trace=True)
    [restart] = [op for op in OperationManager.peek(run.sim).operations.values()
                 if op.kind == "restart"]
    pid = restart.result.pid
    assert pid > 0 and pid == restart.snap.coiproc.offload_proc.pid
    assert rows[restart.op_id][1:4] == ["restart", str(pid), "n0.mic0"]


def test_trace_swap_row_names_the_swapped_in_process(capsys):
    from repro.check.scenarios import run_scenario
    from repro.snapify.ops import OperationManager

    rc = cli_main(["trace", "--scenario", "swap", "--sample-interval", "0"])
    rows = _op_rows(capsys.readouterr().out)
    assert rc == 0
    run = run_scenario("swap", capture_trace=True)
    ops = OperationManager.peek(run.sim).operations
    swapout, swapin = (ops[k] for k in sorted(rows))
    assert rows[swapin.op_id][1:3] == ["swapin", str(swapin.result.pid)]
    assert swapin.result.pid == swapin.snap.coiproc.offload_proc.pid
    assert swapin.result.pid != swapout.result.pid


# ---------------------------------------------------------------------------
# snapify trace runs the fuzz catalogue (oracle-checked scenarios)
# ---------------------------------------------------------------------------


def test_trace_concurrent_checkpoint_prints_its_breakdowns(capsys):
    rc = cli_main(["trace", "--scenario", "concurrent_checkpoint"])
    out = capsys.readouterr().out
    assert rc == 0
    # One breakdown per distinct root span name, four operations in the table.
    for root in ("snapify.pause", "snapify.capture", "snapify.resume"):
        assert out.count(f"Phase breakdown: {root} ") == 1
    assert out.count("| checkpoint |") == 4


def test_trace_plugin_scenario_without_root_span_exits_zero(capsys):
    rc = cli_main(["trace", "--scenario", "plugin:socket_restore"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "no phase breakdown: 'plugin:socket_restore' recorded no root span" in out
    assert "Phase breakdown:" not in out


def test_trace_exits_one_with_summary_when_an_oracle_fails(monkeypatch, capsys):
    import repro.check.scenarios as scenarios
    from repro.check.oracles import Violation

    real_run = scenarios.run_scenario

    def failing_run(name, **kwargs):
        result = real_run(name, **kwargs)
        result.ok = False
        result.violations.append(Violation("result_correct", "planted by the test"))
        return result

    monkeypatch.setattr(scenarios, "run_scenario", failing_run)
    rc = cli_main(["trace", "--scenario", "checkpoint"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "Phase breakdown: snapify.checkpoint" in out
    assert "checkpoint seed=None: FAIL (completed)" in out
    assert "planted by the test" in out


def test_trace_rejects_negative_sample_interval(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["trace", "--sample-interval", "-1"])
    assert exc.value.code == 2
    assert "--sample-interval" in capsys.readouterr().err


def test_fuzz_rejects_zero_seeds(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["fuzz", "--seeds", "0"])
    assert exc.value.code == 2
    assert "--seeds" in capsys.readouterr().err


def test_sampler_ends_so_a_blocked_thread_deadlocks():
    """The sampler returns on waking to an empty heap, so a non-daemon
    thread blocked forever beside it surfaces as DeadlockError instead of
    the sampler ticking forever."""
    from repro.sim.errors import DeadlockError

    sim = Simulator(trace=True)
    MetricsRegistry.of(sim).counter("probe").inc()
    TimeSeriesRecorder.install(sim, 0.01)

    def stuck(s):
        yield s.event("never")

    sim.spawn(stuck(sim), name="stuck")
    with pytest.raises(DeadlockError, match="stuck"):
        sim.run(check_deadlock=True)
    assert sim.trace.find("metric.sample")


def test_sampled_scenario_settles_with_metric_samples():
    from repro.check.scenarios import run_scenario

    result = run_scenario(
        "checkpoint", capture_trace=True,
        instrument=lambda sim: TimeSeriesRecorder.install(sim, 0.01),
    )
    assert result.ok and result.outcome == "completed", result.summary()
    assert result.sim is not None
    assert result.sim.trace.find("metric.sample")


def test_fuzz_report_keeps_no_simulators():
    from repro.check import fuzz
    from repro.check.scenarios import run_scenario

    assert run_scenario("checkpoint", seed=0).sim is not None
    report = fuzz(["checkpoint"], seeds=[0, 1])
    assert report.ok and len(report.runs) == 2
    assert all(r.sim is None for r in report.runs)


# ---------------------------------------------------------------------------
# Histogram buckets + Prometheus text round-trip
# ---------------------------------------------------------------------------


def test_histogram_cumulative_buckets_end_at_inf():
    sim = Simulator()
    reg = MetricsRegistry.of(sim)
    h = reg.histogram("lat", buckets=(0.01, 0.1, 1.0))
    for v in (0.005, 0.05, 0.05, 0.5, 5.0):
        h.observe(v)
    buckets = h.cumulative_buckets()
    les = [le for le, _ in buckets]
    counts = [n for _, n in buckets]
    assert les == [0.01, 0.1, 1.0, float("inf")]
    assert counts == [1, 3, 4, 5]          # cumulative, +Inf == count
    assert counts == sorted(counts)
    # summary() must stay strict-JSON (no bare Infinity).
    text = json.dumps(h.summary())
    assert "+Inf" in text and "Infinity" not in text


def test_prometheus_text_round_trips_and_validates():
    sim = Simulator()
    reg = MetricsRegistry.of(sim)
    reg.counter("fleet.card.n0.mic1.completed").inc(3)
    reg.counter("fleet.prio.swap.submitted").inc(2)
    reg.gauge("fleet.card.n0.mic1.in_flight", lambda: 1)
    h = reg.histogram("fleet.service_time", buckets=(0.1, 1.0))
    h.observe(0.05)
    h.observe(0.5)

    text = prometheus_text(sim)
    assert validate_prometheus_text(text) > 0
    types_map, samples = parse_prometheus_text(text)

    # Structured .card.<key>. / .prio.<label>. segments become labels.
    assert samples["fleet_completed"] == [({"card": "n0.mic1"}, 3.0)]
    assert samples["fleet_submitted"] == [({"priority": "swap"}, 2.0)]
    assert samples["fleet_in_flight"] == [({"card": "n0.mic1"}, 1.0)]

    # Histogram exposition: cumulative buckets ending at +Inf == _count.
    buckets = samples["fleet_service_time_bucket"]
    by_le = {lbl["le"]: v for lbl, v in buckets}
    assert by_le == {"0.1": 1.0, "1": 2.0, "+Inf": 2.0}
    assert samples["fleet_service_time_count"] == [({}, 2.0)]
    assert types_map["fleet_service_time"] == "histogram"


def test_prometheus_validator_rejects_malformed_text():
    with pytest.raises(ValueError):
        parse_prometheus_text("not a metric line!!!")
    # A histogram whose +Inf bucket disagrees with _count must fail.
    bad = "\n".join([
        "# TYPE x histogram",
        'x_bucket{le="1"} 1',
        'x_bucket{le="+Inf"} 1',
        "x_sum 1.0",
        "x_count 2",
        "",
    ])
    with pytest.raises(ValueError, match="count"):
        validate_prometheus_text(bad)


# ---------------------------------------------------------------------------
# snapify fleet / snapify top through main()
# ---------------------------------------------------------------------------


def test_cli_fleet_metrics_prints_card_counters(capsys):
    rc = cli_main(["fleet", "--topology", "dev2", "--metrics"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "fleet.card.n0.mic0.completed" in out


def test_cli_top_renders_dashboard_and_alert_history(capsys):
    rc = cli_main(["top", "--topology", "dev2", "--frames", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "snapify top" in out
    assert "p99 pause" in out
    assert "n0.mic0" in out and "n0.mic1" in out
    assert "no alerts firing" in out


def test_cli_top_export_prom_to_file(tmp_path, capsys):
    out_path = tmp_path / "metrics.prom"
    rc = cli_main(["top", "--topology", "dev2",
                   "--frames", "0", "--export", "prom",
                   "--out", str(out_path)])
    assert rc == 0
    assert f"wrote {out_path}" in capsys.readouterr().out
    text = out_path.read_text()
    assert validate_prometheus_text(text) > 0
    assert 'snapify_phase_latency_seconds{' in text
    assert 'quantile="0.99"' in text


def test_cli_top_export_json_with_failure_and_custom_slo(tmp_path, capsys):
    out_path = tmp_path / "top.json"
    rc = cli_main(["top", "--topology", "rack8",
                   "--frames", "0", "--fail-card", "1", "--fail-at", "0.05",
                   "--slo", "burn_rate < 0.1", "--slo", "pausing p99 < 150ms",
                   "--export", "json", "--out", str(out_path)])
    out = capsys.readouterr().out
    assert rc == 0                     # injected failure is expected
    assert "alert history:" in out
    assert "fire" in out and "burn_rate" in out
    doc = json.loads(out_path.read_text())
    assert doc["tickets"]["failed"] > 0
    assert any(e["key"] == "burn_rate" and e["event"] == "fire"
               for e in doc["alerts"]["history"])
    assert doc["fleet"]["name"] == "fleet"


def test_cli_top_rejects_bad_slo():
    with pytest.raises(ValueError, match="unparseable"):
        cli_main(["top", "--topology", "dev2", "--frames", "0",
                  "--slo", "gibberish"])


@pytest.mark.parametrize("interval", ["-0.1", "0"])
def test_top_rejects_non_positive_interval(interval, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["top", "--topology", "dev2", "--interval", interval])
    assert exc.value.code == 2
    assert "--interval" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fleet", "top"])
def test_unknown_topology_is_a_usage_error(command, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main([command, "--topology", "nope"])
    assert exc.value.code == 2
    assert "--topology" in capsys.readouterr().err


@pytest.mark.parametrize("frames", [1, 2, 3, 5])
def test_top_prints_exactly_the_frames_asked_for(frames, capsys):
    rc = cli_main(["top", "--topology", "dev2", "--frames", str(frames)])
    out = capsys.readouterr().out
    assert rc == 0
    headers = [line for line in out.splitlines()
               if line.startswith("== snapify top")]
    assert len(headers) == frames + 1  # N intermediate frames + the final one
    ticks = [int(h.split("tick ")[1].split()[0]) for h in headers]
    assert ticks == sorted(set(ticks))  # distinct, in run order


@pytest.mark.parametrize("command", ["fleet", "top"])
def test_fleet_commands_exit_one_with_summary_when_an_oracle_fails(
        command, monkeypatch, capsys):
    import repro.check.scenarios as scenarios
    from repro.check.oracles import Violation

    real_run = scenarios.run_scenario

    def failing_run(name, **kwargs):
        result = real_run(name, **kwargs)
        result.ok = False
        result.violations.append(Violation("fleet_result", "planted by the test"))
        return result

    monkeypatch.setattr(scenarios, "run_scenario", failing_run)
    argv = [command, "--topology", "dev2"]
    rc = cli_main(argv + ["--frames", "0"] if command == "top" else argv)
    out = capsys.readouterr().out
    assert rc == 1
    assert "fleet:dev2 seed=None: FAIL (completed)" in out
    assert "planted by the test" in out


def test_top_with_a_failed_card_passes_every_oracle(capsys):
    rc = cli_main(["top", "--topology", "rack8", "--fail-card", "1",
                   "--fail-at", "0.05", "--frames", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "fleet:rack8 seed=None: ok (faulted)" in out
    assert "resolve burn_rate" in out
