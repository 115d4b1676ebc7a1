"""Tests for the fleet control plane (repro.snapify.fleet).

Covers the admission controller (global and per-card caps, priority
ordering, no head-of-line blocking), keyed batch collection with partial
failures, health sweeps, the pre-baked fleet topologies, the scheduler's
fleet routing, the ``snapify fleet`` CLI, and the big-sweep acceptance
scenario (>= 100 operations across >= 32 cards with the invariant oracles
asserted on the result).
"""

from dataclasses import replace

import pytest

from repro.apps import OPENMP_BENCHMARKS, OffloadApplication
from repro.check.oracles import (
    fleet_admission_caps,
    fleet_no_starvation,
    fleet_quiescent,
)
from repro.hw import GB
from repro.sched import FaultInjector, SwapScheduler
from repro.sim import Simulator
from repro.sim.events import Event
from repro.snapify import SnapifyError
from repro.snapify.fleet import (
    BACKGROUND,
    DONE,
    FAILED,
    MAINTENANCE,
    QUEUED,
    RUNNING,
    SWAP,
    CardHealth,
    CardRef,
    FleetManager,
    HealthReport,
    fleet_sweep,
)
from repro.snapify.ops import OperationManager
from repro.testbed import FLEET_TOPOLOGIES, XeonPhiFleet


def _work(sim, order, name, delay=0.01):
    def work():
        order.append(name)
        yield sim.timeout(delay)
        return name

    return work


# ---------------------------------------------------------------------------
# Admission control on a bare simulator (no testbed needed)
# ---------------------------------------------------------------------------


def test_priorities_drain_maintenance_first():
    sim = Simulator()
    mgr = FleetManager(sim=sim, max_in_flight=1)
    order = []
    blocker = mgr.submit("blk", "w", _work(sim, order, "blocker"))
    tb = mgr.submit("bg", "w", _work(sim, order, "bg"), priority=BACKGROUND)
    ts = mgr.submit("sw", "w", _work(sim, order, "swap"), priority=SWAP)
    tm = mgr.submit("mt", "w", _work(sim, order, "maint"),
                    priority=MAINTENANCE)
    # The single slot is busy: everything later is queued regardless of rank.
    assert blocker.state == RUNNING
    assert [t.state for t in (tb, ts, tm)] == [QUEUED, QUEUED, QUEUED]

    def driver(s):
        return (yield from mgr.collect([blocker, tb, ts, tm]))

    t = sim.spawn(driver(sim))
    sim.run_until(t.done)
    result = t.done.value
    assert order == ["blocker", "maint", "swap", "bg"]
    assert result.ok and len(result) == 4
    assert result.results == {"blk": "blocker", "bg": "bg", "sw": "swap",
                              "mt": "maint"}
    assert mgr.hwm_in_flight == 1 and mgr.quiescent()
    # Queue waits were observed per priority class.
    assert tm.queue_wait is not None and ts.queue_wait is not None
    assert tm.queue_wait <= ts.queue_wait <= tb.queue_wait


def test_per_card_cap_does_not_block_other_cards():
    sim = Simulator()
    mgr = FleetManager(sim=sim, max_in_flight=4, per_card_limit=1)
    a, b = CardRef(0, 0), CardRef(0, 1)
    gate = Event(sim, name="gate")

    def blocked():
        yield gate
        return "ok"

    t1 = mgr.submit("a1", "w", blocked, card=a)
    t2 = mgr.submit("a2", "w", blocked, card=a)
    t3 = mgr.submit("b1", "w", blocked, card=b)
    # a2 waits for a's slot, but b1 behind it was admitted immediately.
    assert t1.state == RUNNING and t3.state == RUNNING
    assert t2.state == QUEUED

    def driver(s):
        gate.succeed(None)
        return (yield from mgr.collect([t1, t2, t3]))

    t = sim.spawn(driver(sim))
    sim.run_until(t.done)
    assert t.done.value.ok
    assert mgr.hwm_per_card == {"n0.mic0": 1, "n0.mic1": 1}
    assert mgr.hwm_in_flight <= 2
    assert mgr.quiescent()


def test_submit_rejects_bad_priority_and_bad_caps():
    sim = Simulator()
    mgr = FleetManager(sim=sim)
    with pytest.raises(ValueError):
        mgr.submit("k", "w", lambda: iter(()), priority=99)
    with pytest.raises(ValueError):
        FleetManager(sim=sim, max_in_flight=0)
    with pytest.raises(ValueError):
        FleetManager()  # neither fleet nor sim
    with pytest.raises(SnapifyError):
        next(mgr.health_sweep())  # no fleet to probe


def test_partial_failure_keyed_results_and_aggregation():
    sim = Simulator()
    mgr = FleetManager(sim=sim, max_in_flight=4)

    def good():
        yield sim.timeout(0.01)
        return 42

    def bad():
        yield sim.timeout(0.005)
        raise SnapifyError("card fell off the bus")

    tg = mgr.submit("good", "ckpt", good, card=CardRef(0, 0))
    tb = mgr.submit("bad", "ckpt", bad, card=CardRef(0, 1))

    def driver(s):
        return (yield from mgr.collect([tg, tb]))

    t = sim.spawn(driver(sim))
    sim.run_until(t.done)
    result = t.done.value
    assert not result.ok
    assert tg.state == DONE and tb.state == FAILED
    assert result.results == {"good": 42, "bad": None}
    assert list(result.failures) == ["bad"]
    assert "card fell off the bus" in result.failures["bad"].error
    assert "1 ok" in result.summary() and "1 failed" in result.summary()
    assert set(result.by_card()) == {"n0.mic0", "n0.mic1"}
    with pytest.raises(SnapifyError, match="bad .ckpt. failed"):
        result.raise_on_error()
    # The failed slot was released: counters and caps balance.
    assert mgr.m_completed.value == 1 and mgr.m_failed.value == 1
    assert mgr.quiescent()
    d = mgr.describe()
    assert d["submitted"] == 2 and d["in_flight"] == 0


def test_collect_rejects_duplicate_keys():
    sim = Simulator()
    mgr = FleetManager(sim=sim)

    def noop():
        return "x"
        yield  # pragma: no cover

    t1 = mgr.submit("dup", "w", noop)
    t2 = mgr.submit("dup", "w", noop)
    with pytest.raises(SnapifyError, match="duplicate fleet key"):
        next(mgr.collect([t1, t2]))


# ---------------------------------------------------------------------------
# Topologies
# ---------------------------------------------------------------------------


def test_fleet_topologies_catalog():
    assert set(FLEET_TOPOLOGIES) == {"dev2", "rack8", "rack32", "pod64",
                                     "hall128"}
    assert FLEET_TOPOLOGIES["pod64"].cards == 64
    assert FLEET_TOPOLOGIES["hall128"].cards == 128
    with pytest.raises(ValueError, match="unknown fleet topology"):
        XeonPhiFleet("nope")


def test_fleet_addressing_is_node_major():
    fleet = XeonPhiFleet("dev2")
    cards = fleet.cards()
    assert len(fleet) == 2 and [c.key for c in cards] == ["n0.mic0", "n0.mic1"]
    assert fleet.phi(cards[1]) is fleet.servers[0].node.phis[1]
    assert fleet.engine(cards[0]).device_id == 0


# ---------------------------------------------------------------------------
# Health sweeps
# ---------------------------------------------------------------------------


def test_health_sweep_flags_dead_card():
    fleet = XeonPhiFleet("dev2")
    mgr = FleetManager(fleet)
    injector = FaultInjector(fleet.sim)
    dead = fleet.cards()[1]

    def driver():
        injector.fail_now(fleet.phi(dead))
        return (yield from mgr.health_sweep())

    report = fleet.run(driver())
    assert [h.card for h in report.failed] == ["n0.mic1"]
    assert "card failed" in report.failed[0].error
    assert [h.card for h in report.healthy] == ["n0.mic0"]
    assert "1 failed" in report.summary()


def test_health_report_straggler_analysis():
    entries = [
        CardHealth("n0.mic0", True, 0.010),
        CardHealth("n0.mic1", True, 0.011),
        CardHealth("n1.mic0", True, 0.012),
        CardHealth("n1.mic1", True, 0.100),
        CardHealth("n2.mic0", False, None, error="link down"),
    ]
    report = HealthReport(entries, when=1.0)
    assert [h.card for h in report.stragglers()] == ["n1.mic1"]
    assert report.median_latency() == pytest.approx(0.0115)
    assert "1 straggling" in report.summary()
    # All-failed report: no median, no stragglers.
    empty = HealthReport([CardHealth("x", False, None, error="e")], when=0.0)
    assert empty.median_latency() is None and empty.stragglers() == []


# ---------------------------------------------------------------------------
# The acceptance scenario: a big sweep with the oracles asserted
# ---------------------------------------------------------------------------


def test_rack32_sweep_hundred_ops_under_admission_caps():
    """>= 100 concurrent keyed operations across >= 32 cards through one
    manager, with the admission-cap / starvation / quiescence oracles
    checked on the quiesced fleet."""
    fleet = XeonPhiFleet("rack32")
    mgr = FleetManager(fleet, max_in_flight=12, per_card_limit=2)
    assert len(fleet) == 32

    def driver():
        return (yield from fleet_sweep(fleet, mgr))

    result = fleet.run(driver())
    assert len(result) == 128 and result.ok
    assert len(result.by_card()) == 32
    # Everything was truly concurrent: the global cap was reached.
    assert mgr.hwm_in_flight == 12
    assert max(mgr.hwm_per_card.values()) <= 2
    server = fleet.servers[0]
    assert fleet_admission_caps(server) == []
    assert fleet_no_starvation(server) == []
    assert fleet_quiescent(server) == []
    # Keyed operation results round-trip through the operation manager.
    op_results = result.operation_results()
    assert op_results
    mgr_ops = OperationManager.of(fleet.sim).operations
    for key, res in op_results.items():
        assert mgr_ops[res.op_id].prov.fleet_key == key


def test_fleet_sweep_survives_card_failure():
    fleet = XeonPhiFleet("dev2")
    mgr = FleetManager(fleet, max_in_flight=4, per_card_limit=2)
    injector = FaultInjector(fleet.sim)
    dead = fleet.cards()[1]

    def driver():
        injector.fail_now(fleet.phi(dead))
        result = yield from fleet_sweep(fleet, mgr)
        report = yield from mgr.health_sweep()
        return result, report

    result, report = fleet.run(driver())
    # Card 0's ops succeed except slot 2, its migration onto the dead
    # card; the dead card's spawns fail as keyed tickets.
    by_card = result.by_card()
    assert [t.state for t in by_card["n0.mic0"]] == [DONE, DONE, FAILED, DONE]
    assert by_card["n0.mic0"][2].kind == "migrate"
    assert all(t.state == FAILED for t in by_card["n0.mic1"])
    assert [h.card for h in report.failed] == ["n0.mic1"]
    assert mgr.quiescent()
    server = fleet.servers[0]
    assert fleet_no_starvation(server) == []
    assert fleet_quiescent(server) == []


# ---------------------------------------------------------------------------
# Scheduler integration
# ---------------------------------------------------------------------------


def test_scheduler_routes_swaps_through_fleet():
    fleet = XeonPhiFleet("dev2")
    mgr = FleetManager(fleet, max_in_flight=4, per_card_limit=2)
    card = fleet.cards()[0]
    server = fleet.server(card.node)
    sched = SwapScheduler(server, device=card.device, fleet=mgr)
    profile = replace(OPENMP_BENCHMARKS["MC"], iterations=300)
    app = OffloadApplication(server, profile, device=card.device,
                             name="tenant")
    out = {}

    def driver():
        sim = fleet.sim
        yield from app.launch()
        yield sim.timeout(0.5)
        sched.register(app.host_proc, footprint=2 * GB)
        out["evacuated"] = [j.host_proc.name
                            for j in (yield from sched.evacuate())]
        # A card the manager's last sweep flagged gets nothing swapped
        # back onto it.
        mgr.last_health = HealthReport(
            [CardHealth(card.key, False, None, error="probe failed")],
            when=sim.now,
        )
        assert not sched.card_healthy()
        out["gated"] = yield from sched.reclaim()
        mgr.last_health = HealthReport(
            [CardHealth(card.key, True, 0.01)], when=sim.now,
        )
        out["reclaimed"] = [j.host_proc.name
                            for j in (yield from sched.reclaim())]
        yield app.host_proc.main_thread.done

    fleet.run(driver())
    assert out["evacuated"] == ["tenant"]
    assert out["gated"] == []
    assert out["reclaimed"] == ["tenant"]
    assert app.verify()
    # Both swap directions rode fleet tickets and recorded typed results.
    assert [r.kind for r in sched.operations] == ["swapout", "swapin"]
    kinds = sorted(t.kind for t in mgr.tickets)
    assert kinds == ["swapin", "swapout"]
    assert all(t.state == DONE for t in mgr.tickets)


def test_scheduler_reads_card_health_from_the_shared_managers_sweep():
    """The scheduler reads health where the manager's sweep stores it: after
    a real card failure and a real sweep, reclaim swaps nothing back onto
    the dead card; after the repair and the next sweep, it does."""
    fleet = XeonPhiFleet("dev2")
    mgr = FleetManager(fleet)
    card = fleet.cards()[0]
    server = fleet.server(card.node)
    injector = FaultInjector(fleet.sim)
    sched = SwapScheduler(server, device=card.device, fleet=mgr)
    profile = replace(OPENMP_BENCHMARKS["MC"], iterations=300)
    app = OffloadApplication(server, profile, device=card.device,
                             name="tenant")
    out = {}

    def driver():
        sim = fleet.sim
        yield from app.launch()
        yield sim.timeout(0.5)
        sched.register(app.host_proc, footprint=2 * GB)
        yield from sched.evacuate()
        yield injector.schedule_card_failure(fleet.phi(card), at=sim.now + 0.01,
                                             repair_after=0.5)
        report = yield from mgr.health_sweep()
        out["failed"] = [h.card for h in report.failed]
        out["gated"] = yield from sched.reclaim()
        yield sim.timeout(1.0)  # past the repair and the daemon reboot
        report = yield from mgr.health_sweep()
        out["failed_after_repair"] = [h.card for h in report.failed]
        out["reclaimed"] = [j.host_proc.name
                            for j in (yield from sched.reclaim())]
        yield app.host_proc.main_thread.done

    fleet.run(driver())
    assert out["failed"] == [card.key]
    assert out["gated"] == []
    assert out["failed_after_repair"] == []
    assert out["reclaimed"] == ["tenant"]
    assert app.verify()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_fleet_smoke(capsys):
    from repro.obs.cli import main

    rc = main(["fleet", "--topology", "dev2", "--metrics"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Fleet sweep: dev2" in out
    assert "n0.mic0" in out and "n0.mic1" in out
    assert "8 ops, 8 ok, 0 failed" in out
    assert "fleet.submitted" in out


# ---------------------------------------------------------------------------
# Fuzz scenario registration
# ---------------------------------------------------------------------------


def test_fleet_fuzz_scenario_clean_and_faulted():
    from repro.check.fuzz import default_faults
    from repro.check.scenarios import run_scenario, scenario_names

    assert "fleet:rack8" in scenario_names()
    clean = run_scenario("fleet:rack8", seed=0, faults=default_faults("fleet:rack8", 0))
    assert clean.ok and clean.outcome == "completed"
    faults = default_faults("fleet:rack8", 1)
    assert faults and faults[0]["kind"] == "fleet_card_failure"
    faulted = run_scenario("fleet:rack8", seed=1, faults=faults)
    assert faulted.ok and faulted.outcome == "faulted"
