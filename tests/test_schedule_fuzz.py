"""The schedule-exploration fuzzer: seeded kernels, oracles, artifacts, CLI.

Covers the repro.check tentpole end to end: ``Simulator(schedule_seed=N)``
perturbs same-timestamp ties deterministically (and ``None`` stays the
plain counter), every (scenario, seed, faults) triple replays
byte-identically, the fuzz sweep passes all invariant oracles, and a
failure round-trips through a repro artifact into a one-command replay.
"""

import json

import pytest

from repro.check import (
    CHECKPOINT_FAULT_PHASES,
    ReproArtifact,
    fuzz,
    replay_artifact,
    run_scenario,
)
from repro.check.fuzz import default_faults
from repro.check.scenarios import (
    INCREMENTAL_MODES,
    PLUGIN_MODES,
    SCENARIO_MODES,
    SCENARIOS,
    SCHED_MODES,
    TRANSFER_FAULT_MODES,
    scenario_names,
)
from repro.obs.cli import main
from repro.sim import Simulator

# ---------------------------------------------------------------------------
# Kernel: seeded tie-break perturbation
# ---------------------------------------------------------------------------


def _tie_order(seed, n=6):
    """Spawn n same-time threads; return the order they first ran in."""
    sim = Simulator(schedule_seed=seed)
    out = []

    def w(tag):
        out.append(tag)
        yield sim.timeout(0.001)

    for i in range(n):
        sim.spawn(w(i), name=f"w{i}")
    sim.run()
    return tuple(out)


def test_unseeded_ties_pop_in_insertion_order():
    assert _tie_order(None) == tuple(range(6))


def test_seeded_schedule_replays_identically():
    for seed in (0, 1, 7, 12345):
        assert _tie_order(seed) == _tie_order(seed)


def test_some_seed_perturbs_the_schedule():
    base = _tie_order(None)
    assert any(_tie_order(s) != base for s in range(10))


def test_seeded_mode_is_still_a_legal_schedule():
    """Time ordering is never violated: only same-time ties are permuted."""
    sim = Simulator(schedule_seed=3)
    order = []

    def w(delay, tag):
        yield sim.timeout(delay)
        order.append(tag)

    sim.spawn(w(0.3, "late"), name="late")
    sim.spawn(w(0.1, "early"), name="early")
    sim.spawn(w(0.2, "mid"), name="mid")
    sim.run()
    assert order == ["early", "mid", "late"]


def test_schedule_seed_recorded_on_simulator():
    assert Simulator().schedule_seed is None
    assert Simulator(schedule_seed=42).schedule_seed == 42


# ---------------------------------------------------------------------------
# Scenarios: replayability and oracle-checked sweeps
# ---------------------------------------------------------------------------


def test_scenario_replay_is_byte_identical():
    a = run_scenario("swap", seed=11, capture_trace=True)
    b = run_scenario("swap", seed=11, capture_trace=True)
    assert a.ok and b.ok
    assert a.trace_digest == b.trace_digest
    assert a.final_time == b.final_time


def test_faulted_scenario_replay_is_byte_identical():
    faults = [{"device": 1, "at": 0.4, "repair_after": 0.5}]
    a = run_scenario("checkpoint", seed=5, faults=faults, capture_trace=True)
    b = run_scenario("checkpoint", seed=5, faults=faults, capture_trace=True)
    assert a.trace_digest == b.trace_digest


def test_unknown_scenario_is_rejected():
    with pytest.raises(ValueError, match="unknown scenario"):
        run_scenario("nonsense", seed=0)


def test_scenario_names_expand_fault_phases():
    names = scenario_names()
    assert set(SCENARIO_MODES) <= set(SCENARIOS)
    assert set(SCENARIOS) - set(SCENARIO_MODES) <= set(names)
    assert [n for n in names if ":" in n] == [
        f"{base}:{mode}" for base, modes in SCENARIO_MODES.items()
        for mode in modes
    ]
    for mode in ("card_failure", "team_wipe", "lagging_replica"):
        assert f"replication:{mode}" in names
    for phase in CHECKPOINT_FAULT_PHASES:
        assert f"checkpoint_fault:{phase}" in names
    for mode in TRANSFER_FAULT_MODES:
        assert f"transfer_fault:{mode}" in names
    assert "fleet:rack8" in names
    for mode in INCREMENTAL_MODES:
        assert f"incremental:{mode}" in names
    for mode in PLUGIN_MODES:
        assert f"plugin:{mode}" in names
    assert SCHED_MODES == ("swap", "proactive", "resilient")
    for mode in SCHED_MODES:
        assert f"sched:{mode}" in names
    assert len(names) == 28


def test_fuzz_smoke_all_scenarios_pass_oracles():
    """Every scenario under a handful of seeds (with the default fault
    plan) satisfies every invariant oracle. CI runs the wide version."""
    report = fuzz(seeds=range(3))
    assert report.runs, "sweep produced no runs"
    assert report.ok, report.summary()


def test_default_fault_plan_is_deterministic():
    for scenario in scenario_names():
        for seed in range(6):
            assert default_faults(scenario, seed) == default_faults(scenario, seed)


# ---------------------------------------------------------------------------
# Artifacts: failure -> JSON -> one-command replay
# ---------------------------------------------------------------------------


def test_artifact_roundtrip(tmp_path):
    result = run_scenario("migrate", seed=2)
    art = ReproArtifact.from_result(result)
    path = art.save(str(tmp_path / art.filename()))
    loaded = ReproArtifact.load(path)
    assert loaded.scenario == "migrate"
    assert loaded.seed == 2
    assert loaded.faults == result.faults
    assert "fuzz --replay" in loaded.replay_command(path)
    # The file is plain, versioned JSON.
    data = json.loads(open(path).read())
    assert data["version"] == 1


def test_artifact_replay_reruns_the_same_triple(tmp_path):
    art = ReproArtifact(scenario="checkpoint_fault:after_pause", seed=4)
    path = art.save(str(tmp_path / art.filename()))
    loaded, result = replay_artifact(path)
    assert loaded.scenario == result.scenario == "checkpoint_fault:after_pause"
    assert result.seed == 4
    assert result.outcome == "faulted"
    assert result.ok


def test_fuzz_writes_artifacts_only_on_failure(tmp_path):
    report = fuzz(scenarios=["swap"], seeds=range(2), artifact_dir=str(tmp_path))
    assert report.ok
    assert report.artifact_paths == []
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# CLI: snapify fuzz
# ---------------------------------------------------------------------------


def test_cli_fuzz_smoke(capsys):
    rc = main(["fuzz", "--seeds", "2", "--scenario", "swap"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "2 runs" in out and "0 failed" in out


def test_cli_fuzz_scenario_prefix_selects_phases(capsys):
    rc = main(["fuzz", "--seeds", "1", "--scenario", "checkpoint_fault"])
    out = capsys.readouterr().out
    assert rc == 0
    assert f"{len(CHECKPOINT_FAULT_PHASES)} runs" in out


def test_cli_fuzz_rejects_unknown_scenario(capsys):
    assert main(["fuzz", "--seeds", "1", "--scenario", "bogus"]) == 2


def test_cli_fuzz_replay_of_clean_artifact(tmp_path, capsys):
    art = ReproArtifact(scenario="swap", seed=1)
    path = art.save(str(tmp_path / "a.json"))
    rc = main(["fuzz", "--replay", path])
    out = capsys.readouterr().out
    assert rc == 0
    assert "did NOT reproduce" in out
