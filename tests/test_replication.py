"""Replication-based resilience: teams, heartbeat, re-seed, oracles.

Covers the TeaMPI-style replication tentpole end to end: anti-affinity
placement, replica-aware fan-out/dedup messaging, heartbeat detection
(drops debounced against transient glitches), MAINTENANCE-lane re-seeding
with team-log backfill, the two membership/accounting oracles (each wound
is caught by exactly the right oracle), the ``replicas >= N`` SLO form,
the committed worst-case fuzz seeds, and the zero-interruption claim: a
card failure under one replica costs the job under 10% run time.
"""

import pytest

from repro.apps import NAS_MZ_BENCHMARKS
from repro.apps.nas_mz import MZJob
from repro.check.fuzz import default_faults, fuzz
from repro.check.oracles import (
    no_duplicate_delivery,
    team_membership_consistent,
)
from repro.check.scenarios import run_scenario
from repro.mpi.replication import (
    HeartbeatDetector,
    ReplicationError,
    TeamComm,
    plan_replica_placement,
)
from repro.obs.slo import RedundancySLO, parse_slo
from repro.obs.timeseries import TimeSeriesRecorder
from repro.sched import FaultInjector
from repro.sim import Simulator
from repro.snapify.fleet import FleetManager
from repro.testbed import XeonPhiFleet


def make_job(fleet, n_teams=2, n_replicas=2, iterations=4):
    return MZJob(fleet, NAS_MZ_BENCHMARKS["SP-MZ"], n_teams,
                 n_replicas=n_replicas, iterations=iterations)


# ---------------------------------------------------------------------------
# Placement
# ---------------------------------------------------------------------------


def test_placement_anti_affinity_prefers_disjoint_nodes():
    fleet = XeonPhiFleet("rack8")  # 4 nodes x 2 cards
    placement = plan_replica_placement(fleet.cards(), n_teams=2, n_replicas=2)
    for t in (0, 1):
        a, b = placement[(t, 0)], placement[(t, 1)]
        assert a.key != b.key
        assert a.node != b.node  # rack8 has enough nodes for the strong form
    # No card is used twice across the whole placement.
    keys = [c.key for c in placement.values()]
    assert len(set(keys)) == len(keys)


def test_placement_falls_back_to_shared_node_when_starved():
    """One dual-card node cannot give a team two nodes — but it can still
    give it two distinct cards."""
    fleet = XeonPhiFleet("rack8")
    node0 = [c for c in fleet.cards() if c.node == 0]
    placement = plan_replica_placement(node0, n_teams=1, n_replicas=2)
    a, b = placement[(0, 0)], placement[(0, 1)]
    assert a.node == b.node == 0
    assert a.key != b.key


def test_placement_rejects_overcommit():
    fleet = XeonPhiFleet("rack8")
    with pytest.raises(ReplicationError):
        plan_replica_placement(fleet.cards(), n_teams=5, n_replicas=2)


# ---------------------------------------------------------------------------
# Clean replicated run: fan-out, dedup, ledger
# ---------------------------------------------------------------------------


def test_clean_replicated_run_verifies_and_balances():
    sim = Simulator()
    fleet = XeonPhiFleet("rack8", sim=sim)
    job = make_job(fleet)

    def driver():
        yield from job.launch()
        yield from job.join()

    fleet.run(driver())
    assert job.verify()
    comm = job.comm
    # Both replicas of each team received every logical message exactly once.
    assert comm.delivered_counts and all(
        n == 1 for n in comm.delivered_counts.values()
    )
    # With R=2 both replicas send the same logical message: half the copies
    # land first (delivered), half are suppressed as duplicates.
    assert comm.suppressed > 0
    assert comm.ledger_balanced()
    # Redundancy burns extra iterations beyond the logical progress (the
    # laggard replicas may still be mid-run when the first finishers land,
    # so the burn is between 1x and 2x).
    assert (job.useful_iterations()
            < job.executed_iterations()
            <= 2 * job.useful_iterations())
    server = fleet.servers[0]
    assert team_membership_consistent(server) == []
    assert no_duplicate_delivery(server) == []


# ---------------------------------------------------------------------------
# Card failure: the survivor carries on, zero restarts
# ---------------------------------------------------------------------------


def test_single_card_failure_is_invisible_to_the_team():
    sim = Simulator()
    fleet = XeonPhiFleet("rack8", sim=sim)
    injector = FaultInjector(sim)
    job = make_job(fleet, iterations=6)
    detector = HeartbeatDetector(job, misses=2)

    def driver():
        yield from job.launch()
        detector.start()
        injector.schedule_card_failure(
            fleet.phi(job.placement[(0, 0)]), at=sim.now + 0.15
        )
        yield from job.join()
        detector.stop()

    fleet.run(driver())
    assert job.verify()
    assert [e[:3] for e in detector.drops] == [("drop", 0, 0)]
    assert job.comm.live[0] == [1]
    assert job.comm.dropped[0] == [0]
    assert job.comm.ledger_balanced()
    # Copies sent to the dead replica after the drop are accounted, not lost.
    assert all(n == 1 for n in job.comm.delivered_counts.values())
    server = fleet.servers[0]
    assert team_membership_consistent(server) == []
    assert no_duplicate_delivery(server) == []
    # The heartbeat's gauges track the degraded team.
    from repro.obs.registry import MetricsRegistry

    gauges = MetricsRegistry.of(sim).snapshot()["gauges"]
    assert gauges["replica.team.0.live"] == 1
    assert gauges["replica.team.1.live"] == 2


def test_transient_glitch_below_miss_budget_is_tolerated():
    """A health blip shorter than ``misses`` consecutive probes must not
    drop the replica (the debounce the detector exists for)."""
    sim = Simulator()
    fleet = XeonPhiFleet("rack8", sim=sim)
    job = make_job(fleet, iterations=6)
    detector = HeartbeatDetector(job, misses=3)
    phi = fleet.phi(job.placement[(0, 0)])

    def glitch():
        # A monitoring-visibility blip: the probe sees the link down for
        # ~one heartbeat, but nothing in flight is actually harmed.
        yield sim.timeout(0.12)
        phi.link_down = True
        yield sim.timeout(0.06)
        phi.link_down = False

    def driver():
        yield from job.launch()
        detector.start()
        sim.spawn(glitch(), name="glitch")
        yield from job.join()
        detector.stop()

    fleet.run(driver())
    assert job.verify()
    misses = [e for e in detector.events if e[0] == "miss"]
    assert misses, "the glitch was never even observed"
    assert detector.drops == []
    assert job.comm.live[0] == [0, 1]


# ---------------------------------------------------------------------------
# Team wipe: clean error, fenced survivors
# ---------------------------------------------------------------------------


def test_team_wipe_raises_cleanly_and_membership_stays_coherent():
    sim = Simulator()
    fleet = XeonPhiFleet("rack8", sim=sim)
    injector = FaultInjector(sim)
    job = make_job(fleet, iterations=6)
    detector = HeartbeatDetector(job, misses=2)
    out = {}

    def driver():
        yield from job.launch()
        detector.start()
        injector.schedule_card_failure(
            fleet.phi(job.placement[(0, 0)]), at=sim.now + 0.12
        )
        injector.schedule_card_failure(
            fleet.phi(job.placement[(0, 1)]), at=sim.now + 0.16
        )
        try:
            yield from job.join()
        except ReplicationError as exc:
            out["error"] = str(exc)
            # join() notices the wipe before the heartbeat's next tick:
            # give the detector a few beats to fence the dead replicas
            # before aborting the (healthy, but now pointless) survivors.
            yield sim.timeout(0.25)
            job.abort()
        detector.stop()

    fleet.run(driver())
    assert "team 0 lost every replica" in out["error"]
    assert job.comm.live[0] == []
    assert sorted(job.comm.dropped[0]) == [0, 1]
    assert job.comm.live[1] == [0, 1]
    # abort() fenced the survivors of team 1, so membership stays coherent.
    assert team_membership_consistent(fleet.servers[0]) == []
    assert no_duplicate_delivery(fleet.servers[0]) == []


# ---------------------------------------------------------------------------
# Re-seed: MAINTENANCE-lane clone + team-log backfill
# ---------------------------------------------------------------------------


def test_reseed_restores_team_strength_with_backfill():
    sim = Simulator()
    fleet = XeonPhiFleet("rack8", sim=sim)
    injector = FaultInjector(sim)
    manager = FleetManager(fleet)
    job = make_job(fleet, iterations=8)
    detector = HeartbeatDetector(job, misses=2, manager=manager)

    def driver():
        yield from job.launch()
        detector.start()
        injector.schedule_card_failure(
            fleet.phi(job.placement[(0, 0)]), at=sim.now + 0.15
        )
        yield from job.join()
        detector.stop()
        if detector.reseed_tickets:
            yield from manager.collect(detector.reseed_tickets)

    fleet.run(driver())
    assert job.verify()
    assert len(detector.reseeds) == 1
    reseed = detector.reseeds[0]
    new_rid = reseed[2]
    assert new_rid == job.n_replicas  # next_rid past the original replicas
    # The team ended the run back at full strength, on disjoint cards.
    assert len(job.comm.live[0]) == 2
    cards = [job.placement[(0, r)].key for r in job.comm.live[0]]
    assert len(set(cards)) == 2
    # The joiner was backfilled from the team log and nothing was delivered
    # twice anywhere.
    assert job.comm.backfilled > 0
    assert job.comm.ledger_balanced()
    assert all(n == 1 for n in job.comm.delivered_counts.values())
    assert team_membership_consistent(fleet.servers[0]) == []
    assert no_duplicate_delivery(fleet.servers[0]) == []


# ---------------------------------------------------------------------------
# Oracles: each wound is caught by exactly the right check
# ---------------------------------------------------------------------------


def _unlaunched_job():
    fleet = XeonPhiFleet("rack8")
    job = make_job(fleet)
    for (t, r), rep in job.replicas.items():
        job.comm.register(t, r, rep.card.node)
    return fleet.servers[0], job


def test_membership_oracle_catches_live_and_dropped_overlap():
    server, job = _unlaunched_job()
    job.comm.dropped[0].append(0)  # rid 0 still live too
    violations = team_membership_consistent(server)
    assert any("both live and dropped" in v.detail for v in violations)


def test_membership_oracle_catches_shared_card():
    server, job = _unlaunched_job()
    job.placement[(0, 1)] = job.placement[(0, 0)]
    violations = team_membership_consistent(server)
    assert any("share a card" in v.detail for v in violations)


def test_membership_oracle_catches_unfenced_dropped_replica():
    from types import SimpleNamespace

    server, job = _unlaunched_job()
    job.comm.drop_replica(0, 0, reason="test")
    job.replicas[(0, 0)].host_proc = SimpleNamespace(alive=True)
    violations = team_membership_consistent(server)
    assert any("never fenced" in v.detail for v in violations)


def test_membership_oracle_catches_untracked_replica():
    server, job = _unlaunched_job()
    job.comm.live[1].remove(1)  # placed, but neither live nor dropped
    violations = team_membership_consistent(server)
    assert any("placed but" in v.detail for v in violations)


def test_delivery_oracle_catches_double_delivery():
    server, job = _unlaunched_job()
    job.comm.delivered_counts[((0, 0), (1, ("halo", 0), 0))] = 2
    violations = no_duplicate_delivery(server)
    assert any("delivered != 1" in v.detail for v in violations)


def test_delivery_oracle_catches_ledger_imbalance():
    server, job = _unlaunched_job()
    job.comm.copies_sent += 1  # a copy that never landed in any bucket
    violations = no_duplicate_delivery(server)
    assert any("ledger unbalanced" in v.detail for v in violations)


def test_delivery_oracle_catches_substrate_conservation_break():
    server, job = _unlaunched_job()
    job.comm.transport.messages_sent += 1
    violations = no_duplicate_delivery(server)
    assert any("conservation broken" in v.detail for v in violations)


# ---------------------------------------------------------------------------
# Redundancy SLO: "replicas >= N"
# ---------------------------------------------------------------------------


def test_parse_slo_replicas_form():
    rule = parse_slo("replicas >= 2")
    assert isinstance(rule, RedundancySLO)
    assert rule.min_live == 2
    assert rule.describe() == {"rule": "redundancy", "min_live": 2}


def test_redundancy_slo_flags_only_degraded_teams():
    sim = Simulator()
    rec = TimeSeriesRecorder(sim)
    rec._series("replica.team.0.live").append(1.0, 2)
    rec._series("replica.team.0.live").append(2.0, 1)  # degraded
    rec._series("replica.team.1.live").append(2.0, 2)  # healthy
    rec._series("replica.live").append(2.0, 3)  # aggregate: not a team series
    breaches = RedundancySLO(min_live=2).evaluate(rec, 2.0)
    assert [b.key for b in breaches] == ["redundancy:team0"]
    assert breaches[0].value == 1
    assert breaches[0].threshold == 2.0


# ---------------------------------------------------------------------------
# Worst-case fuzz seeds (committed regressions)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scenario,seed", [
    # Seeds 1 and 5 of lagging_replica drop a replica while its re-seed
    # source is mid-COI-setup — the schedule that exposed the torn-snapshot
    # deadlock (a pause landing inside BUFFER_CREATE) this PR fixes.
    ("replication:lagging_replica", 1),
    ("replication:lagging_replica", 5),
    ("replication:card_failure", 1),
    ("replication:team_wipe", 1),
])
def test_worst_case_replication_seeds_stay_green(scenario, seed):
    result = run_scenario(scenario, seed=seed,
                          faults=default_faults(scenario, seed))
    assert result.ok, result.summary()


def test_team_wipe_mid_launch_orphans_no_offload():
    """Seed 20 wipes team 0 while mic0's COI daemon is forking the offload
    of a replica whose host the abort has just terminated: the host's exit
    passed before the daemon could watch it, so the offload must be reaped
    at once, not left to accept forever (a DeadlockError)."""
    report = fuzz(["replication:team_wipe"], seeds=range(275))
    assert report.ok, report.summary()


def test_team_wipe_leaves_no_thread_parked_on_a_listening_rendezvous():
    """Seeds 1, 5, 10, 16 and 20 kill an offload before it listens. Its
    exit must fail the daemon's ``listening:`` rendezvous, so the launch
    handler ends instead of parking on it for good."""
    name = "replication:team_wipe"
    for seed in range(25):
        result = run_scenario(name, seed=seed, faults=default_faults(name, seed))
        assert result.ok, result.summary()
        parked = [
            (t.name, t._waiting_on.name)
            for t in result.sim.threads.values()
            if t._waiting_on is not None
            and str(t._waiting_on.name).startswith("listening:")
        ]
        assert parked == [], f"seed {seed}: {parked}"


# ---------------------------------------------------------------------------
# Zero-interruption claim
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("faulted", [False, True], ids=["clean", "faulted"])
def test_run_mode_replication_clean(faulted):
    """``replication:card_failure`` seed 1, clean and with its plan (team
    1's replica 0 dies at 0.15 s, no repair). The survivor carries its
    team: the job verifies, the copy ledger balances with no duplicate
    delivery, and the faulted run ends within 1.1x of the clean one
    (measured 3.220 s vs 3.187 s)."""
    name = "replication:card_failure"
    faults = default_faults(name, 1)
    assert faults == [{"kind": "replica_card_failure", "team": 1,
                       "replica": 0, "at": pytest.approx(0.15)}]
    clean = run_scenario(name, seed=1, faults=())
    out = run_scenario(name, seed=1, faults=faults) if faulted else clean
    assert out.ok and out.outcome == "completed", out.summary()
    (job,) = MZJob.all_of(out.sim)
    (comm,) = TeamComm.all_of(out.sim)
    assert job.verify() and comm.ledger_balanced()
    assert set(comm.delivered_counts.values()) == {1}
    assert comm.live == ({0: [0, 1], 1: [1]} if faulted
                         else {0: [0, 1], 1: [0, 1]})
    assert out.final_time <= 1.1 * clean.final_time
