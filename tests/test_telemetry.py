"""Tests for the fleet telemetry stack: time series, SLOs, post-mortems.

Covers the unit surface (Series windows, exact percentile digests, robust
z-scores, SLO parsing), the alert engine's fire/resolve transitions (with
trace records), post-mortem bundles read from a traced replay, and the
end-to-end acceptance path: a telemetry-enabled rack8 sweep with an
injected card failure must export per-card p99 phase latencies in
Prometheus text and both fire and resolve at least one alert.
"""

import json

import pytest

from repro.obs.slo import (
    Breach,
    BurnRateSLO,
    PercentileSLO,
    SLOEngine,
    SLORule,
    StragglerSLO,
    default_slos,
    parse_slo,
    robust_zscores,
)
from repro.obs.timeseries import PercentileDigest, Series, TimeSeriesRecorder
from repro.sim import Simulator


# ---------------------------------------------------------------------------
# Series
# ---------------------------------------------------------------------------


def test_series_window_delta_rate():
    s = Series("x")
    for i in range(5):
        s.append(float(i), 10.0 * i)
    assert s.latest() == 40.0
    assert s.window(2.0) == [(2.0, 20.0), (3.0, 30.0), (4.0, 40.0)]
    assert s.delta(2.0) == 20.0
    # Explicit `now` shifts the window.
    assert s.delta(1.0, now=2.0) == 10.0


def test_series_empty_and_single_point_aggregates():
    s = Series("x")
    assert s.latest() is None and s.window(1.0) == []
    assert s.delta(1.0) == 0.0 and s.ewma() is None
    s.append(1.0, 5.0)
    assert s.delta(10.0) == 0.0
    assert s.ewma() == 5.0


def test_series_ring_is_bounded():
    s = Series("x", maxlen=4)
    for i in range(10):
        s.append(float(i), float(i))
    assert len(s) == 4
    assert s.window(10.0)[0] == (6.0, 6.0)


def test_series_ewma_smooths_toward_recent():
    s = Series("x")
    for t, v in [(0.0, 0.0), (1.0, 0.0), (2.0, 100.0)]:
        s.append(t, v)
    ew = s.ewma(alpha=0.5)
    assert 0.0 < ew < 100.0 and ew == pytest.approx(50.0)


# ---------------------------------------------------------------------------
# PercentileDigest
# ---------------------------------------------------------------------------


def test_digest_exact_percentiles_interpolate():
    d = PercentileDigest("lat")
    for v in [1.0, 2.0, 3.0, 4.0]:
        d.observe(v)
    assert d.p50 == pytest.approx(2.5)
    assert d.percentile(0.0) == 1.0 and d.percentile(100.0) == 4.0
    assert d.mean == pytest.approx(2.5)
    assert d.summary()["count"] == 4 and d.summary()["saturated"] is False


def test_digest_empty_and_singleton():
    d = PercentileDigest("lat")
    assert d.p99 is None and d.mean is None
    d.observe(7.0)
    assert d.p50 == d.p99 == 7.0


def test_digest_saturates_at_cap():
    d = PercentileDigest("lat", cap=3)
    for v in [3.0, 1.0, 2.0, 9.0]:
        d.observe(v)
    assert d.saturated is True
    assert d.count == 4          # counting continues past the cap
    assert d.percentile(100.0) == 3.0  # the dropped 9.0 is not retained


# ---------------------------------------------------------------------------
# Robust z-scores
# ---------------------------------------------------------------------------


def test_robust_zscores_flags_outlier_not_cluster():
    scores = robust_zscores(
        {"a": 0.010, "b": 0.011, "c": 0.012, "d": 0.100}
    )
    assert scores["d"] > 3.5
    assert abs(scores["a"]) < 3.5 and abs(scores["b"]) < 3.5


def test_robust_zscores_mad_zero_fallback():
    # All-identical values: z is 0 everywhere (relative deviation).
    scores = robust_zscores({"a": 5.0, "b": 5.0, "c": 5.0})
    assert scores == {"a": 0.0, "b": 0.0, "c": 0.0}
    # Majority identical, one huge outlier: MAD is 0 but the outlier must
    # still score high via the relative-to-median fallback.
    scores = robust_zscores({"a": 1.0, "b": 1.0, "c": 1.0, "d": 50.0})
    assert scores["d"] > 3.5 and scores["a"] == 0.0
    assert robust_zscores({}) == {}


def test_straggler_slo_min_spread_suppresses_microsecond_jitter():
    """A tightly-clustered fleet (microsecond jitter, tiny MAD) must not
    flag: the absolute-deviation floor gates astronomical z-scores."""
    sim = Simulator()
    rec = TimeSeriesRecorder(sim)
    base = 0.2783
    for i, card in enumerate(["n0.mic0", "n0.mic1", "n1.mic0", "n1.mic1"]):
        for _ in range(2):
            rec._digest("total", card).observe(base + i * 1e-6)
    rule = StragglerSLO(phase="total", min_cards=3)
    assert rule.evaluate(rec, 1.0) == []
    # A genuinely slow card (above floor and z) still flags.
    rec._digest("total", "n2.mic0").observe(base + 0.5)
    rec._digest("total", "n2.mic0").observe(base + 0.5)
    breaches = rule.evaluate(rec, 1.0)
    assert [b.card for b in breaches] == ["n2.mic0"]


# ---------------------------------------------------------------------------
# SLO parsing
# ---------------------------------------------------------------------------


def test_parse_slo_forms():
    p = parse_slo("pausing p99 < 50ms")
    assert isinstance(p, PercentileSLO)
    assert p.phase == "pausing" and p.q == 99.0
    assert p.max_seconds == pytest.approx(0.050)
    assert parse_slo("transferring p95 < 0.4s").max_seconds == pytest.approx(0.4)
    b = parse_slo("burn_rate < 0.1")
    assert isinstance(b, BurnRateSLO) and b.max_rate == pytest.approx(0.1)
    s = parse_slo("straggler z > 4")
    assert isinstance(s, StragglerSLO) and s.max_z == pytest.approx(4.0)
    with pytest.raises(ValueError, match="unparseable"):
        parse_slo("nonsense!!")


def test_default_slos_cover_three_families():
    rules = default_slos()
    assert {type(r) for r in rules} == {PercentileSLO, BurnRateSLO, StragglerSLO}


# ---------------------------------------------------------------------------
# SLO engine: fire/resolve transitions + trace records
# ---------------------------------------------------------------------------


class _FlipRule(SLORule):
    """Breaches exactly when told to — drives engine transitions."""

    name = "flip"

    def __init__(self):
        self.breaching = False

    def evaluate(self, recorder, now):
        if not self.breaching:
            return []
        return [Breach(key="flip", value=2.0, threshold=1.0, detail="test")]


def test_engine_fire_resolve_emits_trace_records():
    sim = Simulator(trace=True)
    rec = TimeSeriesRecorder(sim)
    rule = _FlipRule()
    engine = SLOEngine([rule])

    engine.evaluate(rec, 1.0)
    assert engine.firing == {} and engine.history == []

    rule.breaching = True
    engine.evaluate(rec, 2.0)
    assert "flip" in engine.firing and engine.firing["flip"].since == 2.0
    # A still-breaching tick refreshes, it does not double-fire.
    engine.evaluate(rec, 3.0)
    assert len(engine.history) == 1

    rule.breaching = False
    engine.evaluate(rec, 4.0)
    assert engine.firing == {}
    assert [(t, ev) for t, ev, _ in engine.history] == [(2.0, "fire"), (4.0, "resolve")]

    fires = sim.trace.find("alert.fire")
    resolves = sim.trace.find("alert.resolve")
    assert len(fires) == 1 and fires[0].fields["key"] == "flip"
    assert len(resolves) == 1 and resolves[0].fields["since"] == 2.0
    assert json.dumps(engine.describe())  # JSON-safe


def test_burn_rate_fires_on_windowed_ticket_failures():
    """Drive the recorder through real sample ticks over real fleet
    tickets: a burst of ticket failures fires burn_rate; once the window
    drains it resolves."""
    from repro.snapify.fleet import FleetManager
    from repro.snapify.monitor import SnapifyError

    sim = Simulator()
    rec = TimeSeriesRecorder(
        sim, interval=0.1,
        slos=[BurnRateSLO(max_rate=0.25, window=0.5, min_events=2)],
    )
    manager = FleetManager(sim=sim, max_in_flight=4)

    def ok():
        return
        yield

    def card_died():
        raise SnapifyError("card died")
        yield

    def driver(s):
        for i in range(3):  # healthy traffic
            yield from manager.collect([manager.submit(f"ok{i}", "probe", ok)])
            rec.sample_tick()
            yield s.timeout(0.1)
        yield from manager.collect([manager.submit(f"bad{i}", "probe", card_died)
                                    for i in range(2)])
        rec.sample_tick()
        fired.append("burn_rate" in rec.engine.firing)
        for _ in range(10):  # drain the window
            yield s.timeout(0.1)
            rec.sample_tick()

    fired = []
    sim.spawn(driver(sim))
    sim.run()
    assert fired == [True]
    assert rec.outcomes() == {"operations": {"total": 0, "failed": 0},
                              "tickets": {"total": 5, "failed": 2}}
    events = [(ev, snap["key"]) for _, ev, snap in rec.engine.history]
    assert ("fire", "burn_rate") in events
    assert ("resolve", "burn_rate") in events
    assert rec.engine.firing == {}


def test_percentile_slo_respects_min_samples():
    sim = Simulator()
    rec = TimeSeriesRecorder(sim)
    rule = PercentileSLO(phase="pausing", q=99.0, max_seconds=0.01, min_samples=3)
    rec._digest("pausing", None).observe(5.0)
    rec._digest("pausing", None).observe(5.0)
    assert rule.evaluate(rec, 1.0) == []          # below min_samples
    rec._digest("pausing", None).observe(5.0)
    breaches = rule.evaluate(rec, 1.0)
    assert len(breaches) == 1 and breaches[0].key == "p99:pausing"


# ---------------------------------------------------------------------------
# Sampler lifecycle + inertness
# ---------------------------------------------------------------------------


def test_sampler_ticks_on_sim_clock_and_stops():
    """Ticks at each interval boundary the clock passes, at the float sums
    a sleeping thread would wake at, and stops with the last real event:
    the run ends at 0.55, not at a boundary."""
    sim = Simulator()
    rec = TimeSeriesRecorder.install(sim, interval=0.1)
    assert TimeSeriesRecorder.peek(sim) is rec
    times = []
    rec.on_tick.append(lambda r: times.append(r.sim.now))

    def driver(s):
        yield s.timeout(0.55)

    sim.spawn(driver(sim))
    assert sim.run(check_deadlock=True) == 0.55
    assert times == [0.1, 0.2, 0.1 + 0.1 + 0.1, 0.1 + 0.1 + 0.1 + 0.1,
                     0.1 + 0.1 + 0.1 + 0.1 + 0.1]
    assert rec.ticks == 5
    assert "telemetry.ops_total" in rec.series


def test_sampler_runs_after_every_event_at_its_boundary():
    """A boundary's sample sees every event at or before it, including
    one scheduled at that exact instant, and bounded runs sample too."""
    sim = Simulator()
    seen, fired = [], []
    sim.observe(0.5, lambda: seen.append((sim.now, list(fired))))
    for t in (0.5, 1.2):
        sim.schedule(t, fired.append, t)
    assert sim.run(until=1.0) == 1.0
    assert seen == [(0.5, [0.5])]
    assert sim.run_until(sim.timeout(0.5)) is None
    assert seen == [(0.5, [0.5]), (1.0, [0.5])]
    assert sim.now == 1.5 and fired == [0.5, 1.2]


@pytest.mark.parametrize("interval", [0.0, -0.1])
def test_install_rejects_non_positive_interval(interval):
    sim = Simulator()
    with pytest.raises(ValueError, match="interval"):
        TimeSeriesRecorder.install(sim, interval=interval)
    assert TimeSeriesRecorder.peek(sim) is None


def test_uninstalled_telemetry_is_inert():
    """The default path: no instrument, no recorder, no alert records, no
    extra events."""
    from repro.check.scenarios import run_scenario

    result = run_scenario("checkpoint", capture_trace=True)
    assert result.ok
    sim = result.sim
    assert TimeSeriesRecorder.peek(sim) is None
    assert sim.trace.find("alert.fire") == []
    assert sim.trace.find("alert.resolve") == []
    assert sim.trace.find("metric.sample") == []
    assert not any(r.category.startswith("telemetry") for r in sim.trace.records)


def test_sampler_adds_under_five_percent_kernel_events_on_rack8_sweep():
    """The telemetry tax: the same rack8 fleet sweep with the sampler off
    and at a production interval draws exactly the same sequence keys —
    the sampler schedules nothing."""
    from repro.snapify.fleet import FleetManager, fleet_sweep
    from repro.testbed import XeonPhiFleet

    def sweep_events(telemetry):
        fleet = XeonPhiFleet("rack8")
        if telemetry:
            TimeSeriesRecorder.install(fleet.sim, interval=0.05)
        manager = FleetManager(fleet, max_in_flight=16, per_card_limit=2)
        assert fleet.run(fleet_sweep(fleet, manager)).ok
        return next(fleet.sim._seq)

    assert sweep_events(True) == sweep_events(False)


@pytest.mark.parametrize("name,seed", [
    ("fleet:rack8", 0),
    ("fleet:rack8", 1),
    ("sched:swap", 0),
    ("incremental:delta_chain", 0),
    ("checkpoint", None),
])
def test_sampling_moves_nothing(name, seed):
    """A traced, sampled run keeps the plain run's operations, instants,
    outcome and violations, and the traced run's records apart from the
    samples and alerts themselves."""
    from repro.check.scenarios import run_scenario

    def sampled(sim):
        TimeSeriesRecorder.install(sim, 0.05, slos=default_slos())

    def records(run):
        return [repr(r) for r in run.sim.trace.records
                if r.category != "metric.sample" and not r.category.startswith("alert.")]

    plain = run_scenario(name, seed)
    traced = run_scenario(name, seed, capture_trace=True)
    watched = run_scenario(name, seed, capture_trace=True, instrument=sampled)
    assert watched.sim.trace.find("metric.sample")
    for field in ("operations", "final_time", "outcome", "violations"):
        assert getattr(watched, field) == getattr(plain, field), field
    assert records(watched) == records(traced)


def test_operation_feed_counts_phases_per_card():
    from repro.coi import OffloadBinary, OffloadFunction
    from repro.hw import MB
    from repro.snapify import snapify_t, snapshot_application
    from repro.testbed import XeonPhiServer, offload_process

    sim = Simulator()
    rec = TimeSeriesRecorder.install(sim, interval=0.05)
    server = XeonPhiServer(sim=sim)

    def driver(s):
        binary = OffloadBinary(
            "t.so", 8 * MB, {"step": OffloadFunction("step", duration=0.05)}
        )
        coiproc, _ = yield from offload_process(server, "t", binary,
                                                buffers=[(4 * MB, 1)])
        snap = snapify_t(snapshot_path="/t/ckpt", coiproc=coiproc)
        results = yield from snapshot_application([snap])
        return results

    results = server.run(driver(sim))
    assert all(r.ok for r in results)
    assert rec.outcomes()["operations"] == {"total": 1, "failed": 0}
    assert rec.cards() == ["n0.mic0"]
    assert {"pausing", "total"} <= {p for p, _ in rec.phase_latency}
    d = rec.phase_digest("pausing", "n0.mic0")
    assert d is not None and d.count == 1 and d.p99 > 0
    assert rec.card_failure_counts() == {"n0.mic0": (1, 0)}
    assert json.dumps(rec.describe())


# ---------------------------------------------------------------------------
# Post-mortem bundles
# ---------------------------------------------------------------------------


def test_postmortem_bundle_without_recorder_synthesizes_from_trace():
    from repro.obs.recorder import postmortem_bundle

    sim = Simulator(trace=True)
    for i in range(10):
        sim.trace.emit("chatty", i=i)
    sim.trace.emit("quiet", i=0)
    bundle = postmortem_bundle(sim, recent=4)
    assert bundle["format"] == 1
    assert [r["fields"]["i"] for r in bundle["events"]["chatty"]] == [6, 7, 8, 9]
    assert bundle["dropped"] == {"chatty": 6}
    assert len(bundle["events"]["quiet"]) == 1
    assert bundle["failures"] == [] and bundle["active_ops"] == []
    assert bundle["alerts"] is None
    assert json.dumps(bundle)


def test_flight_recorder_latches_op_failures():
    """A checkpoint killed by a card failure stays in the bundle's
    ``failures`` after the run, read from the operation itself."""
    from repro.coi import OffloadBinary, OffloadFunction
    from repro.hw import MB
    from repro.obs.recorder import postmortem_bundle
    from repro.sched.faults import FaultInjector
    from repro.snapify import snapify_t, snapshot_application
    from repro.testbed import XeonPhiServer, offload_process

    sim = Simulator(trace=True)
    server = XeonPhiServer(sim=sim)

    def driver(s):
        binary = OffloadBinary(
            "f.so", 8 * MB, {"step": OffloadFunction("step", duration=0.05)}
        )
        coiproc, _ = yield from offload_process(server, "f", binary,
                                                buffers=[(4 * MB, 1)])
        # Kill the card mid-checkpoint (the op is ~70 ms end to end).
        FaultInjector(s).schedule_card_failure(server.node.phis[0],
                                               at=s.now + 0.03)
        snap = snapify_t(snapshot_path="/f/ckpt", coiproc=coiproc)
        try:
            yield from snapshot_application([snap])
        except Exception:
            pass

    server.run(driver(sim))
    bundle = postmortem_bundle(sim)
    assert len(bundle["failures"]) == 1
    entry = bundle["failures"][0]
    assert entry["state"] == "FAILED" and entry["card"] == "n0.mic0"
    assert entry["kind"] == "checkpoint" and entry["time"] > 0
    assert json.dumps(bundle)


def test_failing_run_carries_postmortem_into_artifact(tmp_path):
    """Fuzz runs go untraced; the artifact's bundle comes from a traced
    replay of the failing triple, and names the failed operation."""
    from repro.check.artifact import ReproArtifact
    from repro.check.scenarios import run_scenario

    result = run_scenario("checkpoint", seed=3, faults=[{"device": 0, "at": 0.4}])
    assert not result.ok
    assert not result.sim.trace.records  # the run itself kept no trace

    art = ReproArtifact.from_result(result)
    bundle = art.postmortem
    assert bundle["format"] == 1
    assert bundle["events"]["op.end"] and bundle["events"]["span.begin"]
    [failure] = bundle["failures"]
    assert failure["kind"] == "checkpoint" and failure["state"] == "FAILED"
    assert failure["card"] == "n0.mic0" and failure["time"] > 0
    assert [o for o in result.operations if o["state"] == "FAILED"] == [
        {k: v for k, v in failure.items() if k != "time"}]

    path = art.save(str(tmp_path / art.filename()))
    loaded = ReproArtifact.load(path)
    assert loaded.postmortem == art.postmortem

    flight = art.save_flight(str(tmp_path / art.flight_filename()))
    assert flight is not None and flight.endswith(".flight.json")
    with open(flight) as fh:
        assert json.load(fh)["format"] == 1

    clean = run_scenario("checkpoint", seed=3)
    assert clean.ok
    clean_art = ReproArtifact.from_result(clean)
    assert clean_art.postmortem is None
    assert clean_art.save_flight(str(tmp_path / "none.json")) is None


# ---------------------------------------------------------------------------
# Acceptance: rack8 sweep, injected card failure, prom export
# ---------------------------------------------------------------------------


def test_rack8_failure_fires_alert_and_exports_per_card_p99():
    from repro.check.scenarios import run_scenario
    from repro.obs.export import (
        parse_prometheus_text,
        prometheus_text,
        validate_prometheus_text,
    )
    from repro.snapify.fleet import FleetManager

    run = run_scenario(
        "fleet:rack8", faults=[{"kind": "fleet_card_failure", "card": 1, "at": 0.05}],
        instrument=lambda sim: TimeSeriesRecorder.install(sim, slos=default_slos()),
    )
    assert run.ok, run.summary()   # every oracle passed
    assert run.outcome == "faulted"  # the dead card's tickets failed
    recorder = TimeSeriesRecorder.peek(run.sim)
    [manager] = FleetManager.all_of(run.sim)
    health = manager.last_health
    outcomes = recorder.outcomes()["tickets"]
    assert outcomes["failed"] > 0
    assert outcomes == {"total": manager.m_completed.value + manager.m_failed.value,
                        "failed": manager.m_failed.value}

    events = [(ev, snap["key"]) for _, ev, snap in recorder.engine.history]
    assert ("fire", "burn_rate") in events
    assert ("resolve", "burn_rate") in events

    # The surviving cards' p99 phase latencies land in the prom export,
    # labeled per card.
    text = prometheus_text(manager.sim, telemetry=recorder)
    assert validate_prometheus_text(text) > 0
    _, samples = parse_prometheus_text(text)
    p99 = [
        labels
        for labels, _value in samples.get("snapify_phase_latency_seconds", [])
        if labels.get("quantile") == "0.99" and "card" in labels
    ]
    assert {lbl["card"] for lbl in p99} >= {"n0.mic0", "n1.mic0"}
    assert {lbl["phase"] for lbl in p99} >= {"pausing", "total"}

    # The health sweep names the injected casualty.
    assert [h.card for h in health.failed] == ["n0.mic1"]
