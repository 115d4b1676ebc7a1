"""Tests of the end-to-end benchmark harness, at small sizes.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

import json
from pathlib import Path

import pytest

from benchmarks.e2e import __main__ as cli
from benchmarks.e2e.harness import Recorder, execute, run, summarize
from benchmarks.e2e.stats import TooFewSamples, percentile
from benchmarks.e2e.workloads import FaultSweep, FleetHall, IncrementalTier, PaperSuite

BENCHMARK = json.loads((Path(cli.ROOT) / "BENCHMARK.json").read_text())

#: Each small enough to run in seconds, large enough (>= 100 ops in the
#: first cycle) for the p90 rule.
SMALL = {
    "paper_suite": lambda: PaperSuite(profiles=["MC"], mpi=[("LU-MZ", 1)], rounds=15),
    "fleet_hall128": lambda: FleetHall(topology="rack8", batch=100, batches=1),
    "incremental_tier": lambda: IncrementalTier(buffer_mb=16, units=6),
    "fault_sweep": lambda: FaultSweep(
        scenarios=["plugin:ramfs_offsets", "plugin:signal_pending",
                   "plugin:socket_restore", "transfer_fault:fallback"]),
}
COUNT_UNITS = ("count", "B", "sim_s")


def _run(name, seed=0, mode="run"):
    return execute({"workload": name, "seed": seed, "mode": mode, "seconds": 0.0},
                   workload=SMALL[name]())


@pytest.fixture(scope="module")
def runs():
    return {name: _run(name) for name in SMALL}


@pytest.fixture(scope="module")
def traced():
    return {name: _run(name, mode="trace") for name in SMALL}


@pytest.mark.parametrize("name", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_benchmark_metric_is_emitted_with_its_unit(name, runs, traced):
    setup = _run(name, mode="setup")
    assert setup["setup_s"] > 0
    emitted = {k: v["unit"] for k, v in runs[name]["metrics"].items()}
    emitted["setup_s"] = "s"  # the CLI's median over fresh processes
    assert emitted == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    layers = {k: v["unit"] for k, v in traced[name]["metrics"].items()}
    assert layers == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


def test_benchmark_lists_only_harness_workloads():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(cli.WORKLOADS)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_same_seed_gives_identical_simulated_results(name, runs):
    again = _run(name)
    first = runs[name]
    assert again["metrics"]["sim_op_p50_s"] == first["metrics"]["sim_op_p50_s"]
    for extra in ("sim_op_p90_s", "sim_digest", "op_fail_frac"):
        assert again["extras"][extra] == first["extras"][extra]
    assert (again["attempted"], again["failed"]) == (first["attempted"], first["failed"])
    assert again["samples"]["sim_op_s"] == first["samples"]["sim_op_s"]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_same_seed_gives_identical_traced_counts(name, traced):
    again = _run(name, mode="trace")
    counts = {k: v["value"] for k, v in traced[name]["metrics"].items()
              if v["unit"] in COUNT_UNITS}
    assert counts == {k: v["value"] for k, v in again["metrics"].items()
                      if v["unit"] in COUNT_UNITS}
    shares = [v["value"] for k, v in again["metrics"].items() if k.endswith(".self_share")]
    assert sum(shares) == pytest.approx(1.0, abs=0.01)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_another_seed_changes_the_digest(name, runs):
    other = _run(name, seed=1)
    assert other["extras"]["sim_digest"] != runs[name]["extras"]["sim_digest"]


def test_percentile_needs_ten_samples_beyond():
    assert percentile(list(range(100)), 90) == 89
    with pytest.raises(TooFewSamples):
        percentile(list(range(99)), 90)
    with pytest.raises(TooFewSamples):
        percentile(list(range(999)), 99)
    with pytest.raises(TooFewSamples):  # 7 ops cannot carry a p90
        execute({"workload": "paper_suite", "seed": 0, "mode": "run", "seconds": 0.0},
                workload=PaperSuite(profiles=["MC"], mpi=[("LU-MZ", 1)], rounds=1))


def test_failing_run_is_counted_and_ledgered():
    """replication:team_wipe deadlocks at schedule seeds 20, 40 and 80 of
    the first hundred at this commit."""
    workload = FaultSweep(scenarios=["replication:team_wipe"], schedule_seeds=range(100))
    rec = Recorder("fault_sweep", 0)
    result = summarize(rec, run(workload, 0, 0.0, rec))
    assert result["extras"]["op_fail_frac"]["value"] == 0.03
    assert [(e["schedule_seed"], e["error_type"]) for e in rec.ledger] == [
        (20, "DeadlockError"), (40, "DeadlockError"), (80, "DeadlockError")]
    assert all(e["op"] == "replication:team_wipe" for e in rec.ledger)


def test_replays_must_reproduce_the_first_cycle():
    workload = FaultSweep(scenarios=["plugin:ramfs_offsets"], schedule_seeds=[0])
    rec = Recorder("fault_sweep", 0)
    cycle = run(workload, 0, 0.05, rec)
    assert len(rec.units) > cycle and not rec.ledger


def test_chrome_trace_shares_one_id_per_op(traced):
    trace = cli.chrome_trace({"incremental_tier": traced["incremental_tier"]})
    json.dumps(trace)
    ops = [e for e in trace["traceEvents"] if e.get("cat") == "op"]
    begins = {e["id"] for e in ops if e["ph"] == "b"}
    assert begins == {e["id"] for e in ops if e["ph"] == "e"}
    assert len(begins) == traced["incremental_tier"]["attempted"]
    assert all({"sim_start_s", "sim_end_s", "op_id", "kind"} <= e["args"].keys()
               for e in ops if e["ph"] == "b")


def test_cli_refuses_to_run_without_the_library(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "SRC", tmp_path)
    assert cli.main(["--workload", "paper_suite", "--out", str(tmp_path / "r.json")]) == 2
