"""Tests for fault injection, proactive migration and the swap scheduler."""

from dataclasses import replace

import pytest

from repro.apps import OPENMP_BENCHMARKS, OffloadApplication
from repro.hw import GB, MB
from repro.sched import FaultInjector, ProactiveMigrator, SwapScheduler
from repro.testbed import XeonPhiServer


def profile(name="MC", iterations=20, **overrides):
    return replace(OPENMP_BENCHMARKS[name], iterations=iterations, **overrides)


def test_card_failure_kills_processes():
    server = XeonPhiServer()
    injector = FaultInjector(server.sim)
    app = OffloadApplication(server, profile(iterations=100))

    def driver(sim):
        yield from app.launch()
        yield sim.timeout(0.2)
        ev = injector.schedule_card_failure(server.node.phis[0], at=sim.now + 0.1)
        yield ev
        yield sim.timeout(0.05)

    server.run(driver(server.sim))
    assert not app.coiproc.offload_proc.alive
    assert server.node.phis[0].failed


def test_failure_in_past_rejected():
    server = XeonPhiServer()
    injector = FaultInjector(server.sim)

    def driver(sim):
        yield sim.timeout(5)
        with pytest.raises(ValueError):
            injector.schedule_card_failure(server.node.phis[0], at=1.0)
        return "ok"

    assert server.run(driver(server.sim)) == "ok"


def test_proactive_migration_saves_the_job():
    """With enough warning the job survives the card failure and finishes
    with the correct checksum on the other card."""
    server = XeonPhiServer()
    injector = FaultInjector(server.sim)
    migrator = ProactiveMigrator(server, injector)
    app = OffloadApplication(server, profile("KM", iterations=1500), device=0)

    def driver(sim):
        yield from app.launch()
        yield sim.timeout(0.2)
        # Swap-out + swap-in of KM takes ~2 s (libs copy, local store,
        # context); a realistic prediction lead comfortably covers it.
        injector.schedule_card_failure(
            server.node.phis[0], at=sim.now + 4.0, warning_lead=3.8
        )
        yield app.host_proc.main_thread.done

    server.run(driver(server.sim))
    assert app.verify()
    assert len(migrator.migrations_done) == 1
    name, src, dst, when = migrator.migrations_done[0]
    assert (src, dst) == (0, 1)
    assert app.coiproc.offload_proc.os is server.phi_os(1)


def test_proactive_migration_finds_victims_from_live_handles():
    """Nobody registers the jobs: the warning's victims are the live host
    processes whose offload process runs on the sick card, so the mic0 job
    moves to mic1 and the job already on mic1 is left alone."""
    server = XeonPhiServer()
    injector = FaultInjector(server.sim)
    migrator = ProactiveMigrator(server, injector)
    sick = OffloadApplication(server, profile("KM", iterations=1500),
                              device=0, name="sick")
    bystander = OffloadApplication(server, profile("MC", iterations=200),
                                   device=1, name="bystander")

    def driver(sim):
        yield from sick.launch()
        yield from bystander.launch()
        yield sim.timeout(0.2)
        injector.schedule_card_failure(
            server.node.phis[0], at=sim.now + 4.0, warning_lead=3.8
        )
        yield sick.host_proc.main_thread.done
        yield bystander.host_proc.main_thread.done

    server.run(driver(server.sim))
    assert sick.verify() and bystander.verify()
    assert [(n, s, d) for n, s, d, _ in migrator.migrations_done] == [
        ("sick", 0, 1)
    ]
    assert sick.coiproc.offload_proc.os is server.phi_os(1)
    assert bystander.coiproc.offload_proc.os is server.phi_os(1)


def test_too_short_a_warning_loses_the_job_but_no_staged_bytes():
    """The migrator starts moving the job, but the card dies before the
    move completes. The job is lost, and the local store the pause already
    staged on the target card is dropped, its bytes returned to the card."""
    from repro.check.oracles import check_all
    from repro.coi.services import COIError

    server = XeonPhiServer()
    injector = FaultInjector(server.sim)
    migrator = ProactiveMigrator(server, injector)
    app = OffloadApplication(server, profile("KM", iterations=1500), device=0)

    def driver(sim):
        yield from app.launch()
        yield sim.timeout(0.2)
        injector.schedule_card_failure(
            server.node.phis[0], at=sim.now + 0.3, warning_lead=0.1
        )
        with pytest.raises(COIError):
            yield app.host_proc.main_thread.done
        app.host_proc.terminate(code=1)

    server.run(driver(server.sim))
    server.sim.run(check_deadlock=True)
    assert migrator.migrations_done == []
    assert not app.verify()
    assert server.phi_os(1).fs.listdir("/tmp") == []
    assert check_all(server) == []


def test_no_warning_means_job_dies():
    server = XeonPhiServer()
    injector = FaultInjector(server.sim)
    migrator = ProactiveMigrator(server, injector)
    app = OffloadApplication(server, profile("KM", iterations=400), device=0)

    def driver(sim):
        yield from app.launch()
        yield sim.timeout(0.2)
        ev = injector.schedule_card_failure(server.node.phis[0], at=sim.now + 0.05)
        yield ev
        yield sim.timeout(0.1)

    server.run(driver(server.sim))
    assert migrator.migrations_done == []
    assert not app.coiproc.offload_proc.alive


def test_swap_scheduler_makes_room_and_reclaims():
    from repro.snapify.fleet import DONE, FleetManager

    server = XeonPhiServer()
    sched = SwapScheduler(server, device=0)
    # Two tenants that together blow the 8 GB card; SS is the big one.
    big = OffloadApplication(server, profile("SS", iterations=60), name="big")
    small = OffloadApplication(server, profile("MC", iterations=60), name="small")
    out = {}

    def driver(sim):
        yield from big.launch()
        yield sim.timeout(1.0)
        sched.register(big.host_proc, footprint=2 * GB)
        # Pretend the next job needs 7 GB: the scheduler must evict `big`.
        victims = yield from sched.make_room(incoming=7 * GB)
        out["victims"] = [v.host_proc.name for v in victims]
        out["free_after_evict"] = server.node.phis[0].memory.available
        yield sim.timeout(0.5)
        # The 7 GB job "finished"; bring the victim back.
        returned = yield from sched.reclaim()
        out["returned"] = [j.host_proc.name for j in returned]
        yield big.host_proc.main_thread.done

    server.run(driver(server.sim))
    assert out["victims"] == ["big"]
    assert out["free_after_evict"] > 7 * GB
    assert out["returned"] == ["big"]
    assert big.verify()
    assert sched.jobs[big.host_proc.pid].swap_count == 1
    # With no manager passed, the swaps still rode fleet tickets: the
    # scheduler's private manager, named after its card.
    tickets = [t for m in FleetManager.all_of(server.sim) for t in m.tickets]
    assert [(t.kind, t.card.key, t.state) for t in tickets] == [
        ("swapout", "n0.mic0", DONE), ("swapin", "n0.mic0", DONE)
    ]
    assert [m.name for m in FleetManager.all_of(server.sim)] == ["sched.n0.mic0"]


def test_swap_scheduler_noop_when_room_exists():
    server = XeonPhiServer()
    sched = SwapScheduler(server, device=0)
    app = OffloadApplication(server, profile("MC", iterations=10))

    def driver(sim):
        yield from app.launch()
        yield sim.timeout(0.2)
        sched.register(app.host_proc, footprint=50 * MB)
        victims = yield from sched.make_room(incoming=100 * MB)
        yield app.host_proc.main_thread.done
        return victims

    assert server.run(driver(server.sim)) == []
    assert app.verify()


def test_card_repair_reboots_daemons_and_accepts_work():
    from repro.apps import OffloadApplication as _App
    from repro.coi import COIDaemon
    from repro.snapify_io import SnapifyIODaemon

    server = XeonPhiServer()
    injector = FaultInjector(server.sim)

    def driver(sim):
        ev = injector.schedule_card_failure(server.node.phis[0], at=1.0,
                                            repair_after=2.0)
        yield ev
        assert server.node.phis[0].failed
        yield sim.timeout(2.5)  # past the repair
        assert not server.node.phis[0].failed
        # The rebooted daemons accept a brand new offload application.
        app = _App(server, profile("MC", iterations=5), device=0)
        yield from app.launch()
        yield app.host_proc.main_thread.done
        return app

    app = server.run(driver(server.sim))
    assert app.verify()
    assert COIDaemon.of(server.node.phis[0]).proc.alive
    assert SnapifyIODaemon.of(server.phi_os(0)).proc.alive


def test_repair_requires_positive_delay():
    server = XeonPhiServer()
    injector = FaultInjector(server.sim)
    with pytest.raises(ValueError):
        injector.schedule_card_failure(server.node.phis[0], at=1.0,
                                       repair_after=0)


def test_telemetry_dispatch_order_is_subscription_order():
    """Warnings fan out in subscription order over a snapshot: subscribers
    added during dispatch see only the NEXT warning, and unsubscribing a
    not-yet-dispatched subscriber mid-warning still delivers to it (the
    snapshot was taken when the warning fired). This keeps telemetry
    ordering identical across seeded schedule perturbations."""
    server = XeonPhiServer()
    injector = FaultInjector(server.sim)
    calls = []

    def late(phi, ttf):
        calls.append("late")

    def first(phi, ttf):
        calls.append("first")
        injector.subscribe(late)      # must NOT fire for this warning
        injector.unsubscribe(second)  # must STILL fire for this warning

    def second(phi, ttf):
        calls.append("second")

    injector.subscribe(first)
    injector.subscribe(second)
    injector.schedule_card_failure(server.node.phis[0], at=1.0, warning_lead=0.5)
    server.sim.run(until=0.6)
    assert calls == ["first", "second"]
    calls.clear()
    injector.schedule_card_failure(server.node.phis[1], at=2.0, warning_lead=0.5)
    server.sim.run(until=1.6)
    # Next warning: 'second' unsubscribed, 'late' now in the list.
    assert calls == ["first", "late"]


def test_telemetry_order_stable_under_seeded_schedules():
    """The same fault plan produces the same telemetry order no matter the
    schedule seed (regression for the seeded tie-break mode)."""
    from repro.sim import Simulator

    def dispatch_order(seed):
        sim = Simulator(schedule_seed=seed)
        server = XeonPhiServer(sim=sim)
        injector = FaultInjector(sim)
        calls = []
        for tag in ("a", "b", "c"):
            injector.subscribe(lambda phi, ttf, tag=tag: calls.append(tag))
        injector.schedule_card_failure(server.node.phis[0], at=sim.now + 1.0,
                                       warning_lead=0.5)
        sim.run(until=sim.now + 0.6)
        return calls

    expected = dispatch_order(None)
    assert expected == ["a", "b", "c"]
    for seed in (0, 1, 2, 3):
        assert dispatch_order(seed) == expected


def test_fail_now_kills_card_synchronously():
    server = XeonPhiServer()
    injector = FaultInjector(server.sim)
    phi = server.node.phis[0]
    n_procs = len(phi.os.processes)
    assert n_procs > 0
    ev = injector.fail_now(phi)
    assert ev.triggered and ev.value is phi
    assert phi.failed
    assert len(phi.os.processes) == 0


@pytest.mark.parametrize("second", ["same_injector", "other_injector"])
def test_second_fault_on_a_dead_card_still_fires(second):
    """A fault aimed at a card that is already dead still triggers its
    event, so nothing waiting on it parks; only the first one is logged."""
    server = XeonPhiServer()
    injector = FaultInjector(server.sim)
    again = injector if second == "same_injector" else FaultInjector(server.sim)
    phi = server.node.phis[0]
    injector.fail_now(phi)
    ev = again.fail_now(phi)
    assert ev.triggered and ev.value is phi

    def waiter(sim):
        t0 = sim.now
        dead = yield again.schedule_card_failure(phi, at=t0 + 0.1)
        return dead, sim.now - t0

    assert server.run(waiter(server.sim)) == (phi, pytest.approx(0.1))
    assert injector.injected == ["card_failure:0"]
    if again is not injector:
        assert again.injected == []


def test_proactive_scenario_passes_without_a_fault_plan():
    """With no warning nothing moves, and the job finishing on mic0 is
    correct: the seed-free catalogue run must pass."""
    from repro.check.scenarios import run_scenario

    result = run_scenario("sched:proactive")
    assert result.outcome == "completed"
    assert result.ok, result.violations


def test_proactive_scenario_flags_a_warned_job_that_stayed(monkeypatch):
    """A migrator that ignores its warning leaves the job on mic0. With
    mic0's failure injected, the run is flagged even though the job (on a
    card that here keeps running) finished verified."""
    from repro.check.scenarios import run_scenario

    monkeypatch.setattr(ProactiveMigrator, "_on_warning", lambda self, phi, ttf: None)

    def fail_in_ledger_only(self, phi, ev):
        self.injected.append(f"card_failure:{phi.index}")
        ev.succeed(phi)

    monkeypatch.setattr(FaultInjector, "_fail", fail_in_ledger_only)
    result = run_scenario(
        "sched:proactive", faults=[{"device": 0, "at": 2.0, "warning_lead": 1.2}]
    )
    assert result.outcome == "completed"
    assert not result.ok
    assert [str(v) for v in result.violations] == ["[sched] the job finished off mic1"]
