"""Tests for the observability layer: spans, metrics, phases, export."""

import json

import pytest

from repro.obs import (
    MetricsRegistry,
    PhaseBreakdown,
    TimeSeriesRecorder,
    build_span_tree,
    chrome_trace,
    validate_trace_events,
    write_chrome_trace,
)
from repro.check.scenarios import run_scenario
from repro.obs.cli import main as cli_main
from repro.sim import NULL_SPAN, Simulator


# ---------------------------------------------------------------------------
# Span API
# ---------------------------------------------------------------------------


def test_span_begin_end_records():
    sim = Simulator(trace=True)
    sp = sim.trace.span("op", answer=42)
    assert sp.span_id == 1 and sp.parent_id == 0
    sim.schedule(0.5, lambda: None)
    sim.run()
    sp.finish(bytes=7)
    begins = sim.trace.find("span.begin", span=1)
    ends = sim.trace.find("span.end", span=1)
    assert len(begins) == 1 and begins[0].fields["answer"] == 42
    assert len(ends) == 1 and ends[0].fields["bytes"] == 7
    assert ends[0].time == pytest.approx(0.5)
    assert sp.end == pytest.approx(0.5)


def test_span_parent_accepts_span_or_bare_id():
    sim = Simulator(trace=True)
    root = sim.trace.span("root")
    by_object = sim.trace.span("child-a", parent=root)
    # Protocol messages carry bare ids across process boundaries.
    by_id = sim.trace.span("child-b", parent=root.span_id)
    assert by_object.parent_id == root.span_id
    assert by_id.parent_id == root.span_id


def test_span_ids_are_deterministic_per_simulator():
    ids = []
    for _ in range(2):
        sim = Simulator(trace=True)
        sim.trace.span("a")
        ids.append(sim.trace.span("b").span_id)
    assert ids[0] == ids[1] == 2


def test_span_double_finish_is_single_record():
    sim = Simulator(trace=True)
    sp = sim.trace.span("op")
    sp.finish()
    sp.finish()
    assert len(sim.trace.find("span.end", span=sp.span_id)) == 1


def test_span_context_manager():
    sim = Simulator(trace=True)
    with sim.trace.span("op") as sp:
        pass
    assert sp.end is not None


def test_disabled_span_is_null_span():
    """With tracing off, span() returns the shared NULL_SPAN: no allocation,
    no id drawn, finish() a no-op — and span_id 0 means 'no parent' when
    embedded in protocol messages."""
    sim = Simulator(trace=False)
    sp = sim.trace.span("op", parent=17)
    assert sp is NULL_SPAN and sp.span_id == 0
    sp.finish()
    assert sim.trace.records == []
    # No id was drawn while disabled: the first traced span still gets id 1.
    sim.trace.enabled = True
    assert sim.trace.span("op").span_id == 1


# ---------------------------------------------------------------------------
# Sinks and capture()
# ---------------------------------------------------------------------------


def test_sinks_attached_while_disabled_see_nothing():
    """The disabled tracer's emit is a no-op, so sinks observe only records
    emitted while enabled — attaching early doesn't change that."""
    sim = Simulator(trace=False)
    seen = []
    sim.trace.sinks.append(lambda rec: seen.append(rec.category))
    sim.trace.emit("invisible")
    assert seen == [] and sim.trace.records == []
    sim.trace.enabled = True
    sim.trace.emit("visible")
    assert seen == ["visible"]


def test_capture_context_manager():
    sim = Simulator(trace=False)
    with sim.trace.capture() as trace:
        trace.emit("inside")
    assert not sim.trace.enabled
    assert [r.category for r in sim.trace.records] == ["inside"]
    sim.trace.emit("after")  # still disabled
    assert len(sim.trace.records) == 1


def test_capture_restores_enabled_state_and_clears():
    sim = Simulator(trace=True)
    sim.trace.emit("before")
    with sim.trace.capture(clear=True):
        sim.trace.emit("inside")
    assert sim.trace.enabled  # prior state restored
    assert [r.category for r in sim.trace.records] == ["inside"]


# ---------------------------------------------------------------------------
# Category index (find / first_time / last_time)
# ---------------------------------------------------------------------------


def test_category_index_matches_linear_scan():
    sim = Simulator(trace=True)
    for i in range(200):
        sim.trace.emit(f"cat{i % 7}", i=i, parity=i % 2)
    trace = sim.trace
    for cat in [f"cat{k}" for k in range(7)] + ["missing"]:
        for match in ({}, {"parity": 0}, {"i": 13}, {"i": -1}):
            expect = [r for r in trace.records if r.category == cat
                      and all(r.fields.get(k) == v for k, v in match.items())]
            assert trace.find(cat, **match) == expect
            assert trace.first_time(cat, **match) == (
                expect[0].time if expect else None)
            assert trace.last_time(cat, **match) == (
                expect[-1].time if expect else None)


def test_clear_resets_category_index():
    sim = Simulator(trace=True)
    sim.trace.emit("cat")
    sim.trace.clear()
    assert sim.trace.find("cat") == []
    sim.trace.emit("cat", fresh=True)
    assert len(sim.trace.find("cat")) == 1


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------


def test_registry_is_per_simulator_and_get_or_create():
    sim = Simulator()
    reg = MetricsRegistry.of(sim)
    assert MetricsRegistry.of(sim) is reg
    c = reg.counter("hits")
    assert reg.counter("hits") is c
    c.inc()
    c.inc(4)
    assert c.value == 5


def test_registry_snapshot_and_gauge_failure():
    sim = Simulator()
    reg = MetricsRegistry.of(sim)
    reg.counter("n").inc(3)
    reg.gauge("depth", lambda: 7)
    reg.gauge("broken", lambda: 1 / 0)
    h = reg.histogram("lat")
    h.observe(2.0)
    h.observe(4.0)
    snap = reg.snapshot()
    assert snap["counters"]["n"] == 3
    assert snap["gauges"]["depth"] == 7
    assert snap["gauges"]["broken"] is None  # raising gauge reported as None
    assert snap["histograms"]["lat"]["mean"] == pytest.approx(3.0)
    assert snap["histograms"]["lat"]["min"] == 2.0
    assert snap["histograms"]["lat"]["max"] == 4.0


def test_registry_sample_emits_metric_records():
    """One telemetry tick reads each instrument once: numeric counters and
    gauges become ``metric.sample`` records and series points; histograms
    become ``.count``/``.sum`` points only."""
    sim = Simulator(trace=True)
    reg = MetricsRegistry.of(sim)
    reg.counter("a.n").inc()
    reg.gauge("b.depth", lambda: 2)
    reg.gauge("b.label", lambda: "text")  # non-numeric: not sampled
    reg.gauge("b.broken", lambda: 1 / 0)  # raising: skipped
    reg.histogram("c.lat").observe(0.5)
    rec = TimeSeriesRecorder(sim)
    rec.sample_tick()
    samples = [(r.fields["name"], r.fields["value"])
               for r in sim.trace.find("metric.sample")]
    assert samples == [("a.n", 1), ("b.depth", 2)]
    assert rec.series["a.n"].latest() == 1
    assert rec.series["c.lat.count"].latest() == 1
    assert rec.series["c.lat.sum"].latest() == 0.5
    assert "b.label" not in rec.series and "b.broken" not in rec.series


# ---------------------------------------------------------------------------
# Span trees and phase breakdowns
# ---------------------------------------------------------------------------


def _advance(sim, dt):
    sim.schedule(dt, lambda: None)
    sim.run()


def _synthetic_operation(sim):
    """Root [0, 10] with overlapping children [1, 5] and [4, 8]."""
    trace = sim.trace
    root = trace.span("op", proc="host")
    _advance(sim, 1.0)
    a = trace.span("phase.a", parent=root, proc="host")
    _advance(sim, 3.0)
    b = trace.span("phase.b", parent=root, proc="card")
    _advance(sim, 1.0)
    a.finish()
    _advance(sim, 3.0)
    b.finish()
    _advance(sim, 2.0)
    root.finish()
    return root


def test_build_span_tree_structure():
    sim = Simulator(trace=True)
    _synthetic_operation(sim)
    roots, by_id = build_span_tree(sim.trace)
    assert len(roots) == 1 and len(by_id) == 3
    root = roots[0]
    assert [c.name for c in root.children] == ["phase.a", "phase.b"]
    assert root.find("phase.b")[0].duration == pytest.approx(4.0)
    assert len(list(root.walk())) == 3


def test_phase_breakdown_accounts_to_total():
    """Union accounting: overlapping children are counted once, and covered
    plus unattributed reproduces end-to-end exactly (the 1% criterion holds
    by construction)."""
    sim = Simulator(trace=True)
    _synthetic_operation(sim)
    bd = PhaseBreakdown.from_trace(sim.trace, "op")
    assert bd.total == pytest.approx(10.0)
    assert bd.covered == pytest.approx(7.0)  # [1,5] U [4,8]
    assert bd.unattributed == pytest.approx(3.0)
    assert bd.accounted == pytest.approx(bd.total)
    assert abs(bd.accounted - bd.total) <= 0.01 * bd.total
    text = bd.render()
    assert "phase.a" in text and "(unattributed)" in text and "overlap" in text


def test_phase_breakdown_unknown_root():
    sim = Simulator(trace=True)
    _synthetic_operation(sim)
    with pytest.raises(ValueError, match="no finished root span"):
        PhaseBreakdown.from_trace(sim.trace, "nope")
    with pytest.raises(ValueError, match="occurrence 1"):
        PhaseBreakdown.from_trace(sim.trace, "op", occurrence=1)


# ---------------------------------------------------------------------------
# Chrome trace-event export
# ---------------------------------------------------------------------------


def test_chrome_trace_lanes_and_pairs():
    sim = Simulator(trace=True)
    _synthetic_operation(sim)
    MetricsRegistry.of(sim).counter("n").inc()
    TimeSeriesRecorder(sim).sample_tick()
    sim.trace.emit("marker", proc="host")
    doc = chrome_trace(sim.trace)
    assert validate_trace_events(doc) == len(doc["traceEvents"])
    lanes = {ev["args"]["name"] for ev in doc["traceEvents"] if ev["ph"] == "M"}
    assert {"host", "card", "metrics"} <= lanes
    counters = [ev for ev in doc["traceEvents"] if ev["ph"] == "C"]
    assert counters and counters[0]["args"]["value"] == 1


def test_chrome_trace_closes_unfinished_spans():
    sim = Simulator(trace=True)
    sim.trace.span("never-finished", proc="host")
    sim.trace.emit("later")
    doc = chrome_trace(sim.trace)
    validate_trace_events(doc)  # synthetic 'e' keeps pairs matched
    ends = [ev for ev in doc["traceEvents"] if ev["ph"] == "e"]
    assert len(ends) == 1 and ends[0]["args"] == {"unfinished": True}


def test_validator_rejects_malformed_docs():
    with pytest.raises(ValueError, match="traceEvents"):
        validate_trace_events({})
    with pytest.raises(ValueError, match="bad phase"):
        validate_trace_events({"traceEvents": [{"ph": "z"}]})
    with pytest.raises(ValueError, match="never ended"):
        validate_trace_events({"traceEvents": [
            {"ph": "b", "cat": "span", "id": 1, "name": "x",
             "pid": 1, "tid": 0, "ts": 0.0},
        ]})
    with pytest.raises(ValueError, match="without begin"):
        validate_trace_events({"traceEvents": [
            {"ph": "e", "cat": "span", "id": 9, "name": "x",
             "pid": 1, "tid": 0, "ts": 0.0},
        ]})


# ---------------------------------------------------------------------------
# End-to-end: the traced swap-out scenario (CI's format test)
# ---------------------------------------------------------------------------


def test_traced_swapout_breakdown_and_export(tmp_path):
    result = run_scenario(
        "swap", capture_trace=True,
        instrument=lambda sim: TimeSeriesRecorder.install(sim, 0.01),
    )
    assert result.ok, result.summary()
    tracer = result.sim.trace

    for root_name in ("snapify.swapout", "snapify.swapin"):
        bd = PhaseBreakdown.from_trace(tracer, root_name)
        assert bd.total > 0
        assert bd.components, f"{root_name} has no component spans"
        # Acceptance criterion: components (union) + unattributed sum to the
        # end-to-end latency within 1%.
        assert abs(bd.accounted - bd.total) <= 0.01 * bd.total

    # The daemon/agent-side work joins the host-side causal tree.
    roots, _ = build_span_tree(tracer)
    swapout = next(r for r in roots if r.name == "snapify.swapout")
    names = {n.name for n in swapout.walk()}
    assert {"snapify.pause", "agent.pause", "agent.localstore_save",
            "snapifyio.local"} <= names

    out = tmp_path / "trace.json"
    doc = write_chrome_trace(tracer, str(out))
    assert validate_trace_events(doc) > 0
    validate_trace_events(json.loads(out.read_text()))  # valid after round-trip


def test_cli_trace_checkpoint(capsys):
    rc = cli_main(["trace", "--scenario", "checkpoint", "--sample-interval", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Phase breakdown: snapify.checkpoint" in out
    assert "end-to-end" in out
