"""The fuzz driver: sweep seeds × scenarios × fault plans, check oracles.

The sweep itself is deterministic: the fault plan for a given (scenario,
seed) pair is a fixed function of the pair, so a fuzz campaign is fully
described by its scenario list and seed range — and any failure it finds is
already a replayable triple (see :mod:`repro.check.artifact`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .artifact import ReproArtifact
from .scenarios import RunResult, run_scenario, scenario_names

#: Scenarios that only ever touch card 0, leaving card 1 free to fail.
_SPARE_CARD_SCENARIOS = ("checkpoint", "restart", "swap", "sched:swap")


def default_faults(scenario: str, seed: int) -> List[Dict[str, Any]]:
    """The deterministic per-(scenario, seed) fault plan of the default sweep.

    Every third seed runs fault-free; the rest fail the *spare* card (the
    one the workload does not use) mid-run — with and without a repair — to
    prove an unrelated card failure never perturbs a protocol in flight.
    Scenarios that use both cards (migrate) and the phase-injection
    scenarios (checkpoint_fault:*) carry their fault in the scenario itself.
    The plugin:* sweep runs fault-free by design (it falls through to the
    empty plan): its adversary is the seed's restore-target parity, not an
    injected failure. The sched:* plans are plain ``card_failure`` entries
    (see :func:`_sched_faults`).
    """
    base, _, mode = scenario.partition(":")
    if base == "transfer_fault":
        return _transfer_faults(mode, seed)
    if base == "incremental":
        return _incremental_faults(mode, seed)
    if base == "fleet":
        # Every third seed kills one fleet card mid-sweep (card choice and
        # timing walk with the seed); the rest run clean, so the sweep
        # covers both the all-DONE and the partial-failure surface.
        if seed % 3 != 1:
            return []
        return [{"kind": "fleet_card_failure", "card": seed % 64,
                 "at": 2.5 + 0.1 * (seed % 5)}]
    if base == "replication":
        return _replication_faults(mode, seed)
    if base == "sched" and mode != "swap":
        return _sched_faults(mode, seed)
    if scenario not in _SPARE_CARD_SCENARIOS:
        return []
    variant = seed % 3
    if variant == 0:
        return []
    fault: Dict[str, Any] = {"device": 1, "at": 0.4 + 0.05 * (seed % 7)}
    if variant == 2:
        fault["warning_lead"] = 0.1
        fault["repair_after"] = 0.5
    return [fault]


def _transfer_faults(mode: str, seed: int) -> List[Dict[str, Any]]:
    """Deterministic fault plans for the ``transfer_fault:<mode>`` sweep.

    The scenario starts its transfer 0.3 s after boot with a ~1 s retry
    horizon per channel, so the windows below land before, inside, and
    after the transfer as the seed varies:

    * ``flap`` — the card's PCIe link flaps transiently and comes back:
      Snapify-IO should retry/resume and still carry the file.
    * ``daemon_crash`` — the host Snapify-IO daemon crashes and restarts:
      retries either land after the restart or degrade to NFS.
    * ``fallback`` — a daemon endpoint dies for good: the chain must
      degrade and the file must still arrive.
    * ``cascade`` — Snapify-IO, NFS, and the link are all taken down: the
      transfer must fail *cleanly* with the aggregated cause chain. Every
      third seed (``seed % 3 == 2``) leaves the link up, so scp, the last
      leg of the chain, must carry the file.
    """
    if mode == "flap":
        return [{"kind": "link_flap", "device": 0,
                 "at": 0.31 + 0.01 * (seed % 8),
                 "up_after": 0.05 + 0.05 * (seed % 3)}]
    if mode == "daemon_crash":
        return [{"kind": "io_daemon_crash", "node": 0,
                 "at": 0.3 + 0.02 * (seed % 6),
                 "restart_after": 0.08 + 0.04 * (seed % 2)}]
    if mode == "fallback":
        return [{"kind": "io_daemon_crash", "node": seed % 2,
                 "at": 0.3 + 0.02 * (seed % 5)}]
    if mode == "cascade":
        plan: List[Dict[str, Any]] = [
            {"kind": "io_daemon_crash", "node": 0, "at": 0.3},
            {"kind": "nfs_down", "at": 0.3 + 0.01 * (seed % 4)},
        ]
        if seed % 3 != 2:
            plan.append({"kind": "link_flap", "device": 0,
                         "at": 0.32 + 0.01 * (seed % 4)})
        return plan
    raise ValueError(f"unknown transfer_fault mode {mode!r}")


def _incremental_faults(mode: str, seed: int) -> List[Dict[str, Any]]:
    """Deterministic fault plans for the ``incremental:<mode>`` sweep.

    The scenario runs three capture epochs on card 0 starting ~0.3 s after
    boot, each replicated to the partner card 1, then (``demotion_race``
    only) submits a BACKGROUND demotion ticket with a 1.5 s retry horizon
    (three attempts, 0.5 s and 1.0 s apart):

    * ``delta_chain`` — fault-free: the base+delta ledger itself is the
      artifact under test; the ``delta_chain_reconstructs`` oracle must
      reassemble it byte-for-byte.
    * ``partner_loss`` — the partner card dies inside the capture window
      (sometimes coming back): a replication caught mid-stream leaves a
      torn copy that must be dropped, never counted as a surviving copy.
    * ``demotion_race`` — the NFS export flaps across the demotion ticket's
      retry horizon: the demote must either land a complete chain file
      after the export returns or fail cleanly with the chain still
      memory-resident.
    """
    if mode == "delta_chain":
        return []
    if mode == "partner_loss":
        fault: Dict[str, Any] = {"device": 1,
                                 "at": 0.32 + 0.04 * (seed % 8)}
        if seed % 2 == 1:
            fault["repair_after"] = 0.3 + 0.1 * (seed % 3)
        return [fault]
    if mode == "demotion_race":
        return [{"kind": "nfs_down", "at": 0.35 + 0.1 * (seed % 6),
                 "restore_after": 0.5 + 0.5 * (seed % 4)}]
    raise ValueError(f"unknown incremental mode {mode!r}")


def _replication_faults(mode: str, seed: int) -> List[Dict[str, Any]]:
    """Deterministic fault plans for the ``replication:<mode>`` sweep.

    Fault times are offsets after the replicated job launches; the job
    runs ~0.4 s of halo-exchange iterations, so the windows walk across
    early, mid, and late (sometimes post-completion) run phases as the
    seed varies. Every third seed runs clean so the sweep also covers the
    fault-free fan-out/dedup surface:

    * ``card_failure`` — one replica's card dies (occasionally repaired):
      its team must finish on the survivor with zero restarts.
    * ``team_wipe`` — both replicas of team 0 die a beat apart: the run
      must end with a clean ReplicationError, never a deadlock.
    * ``lagging_replica`` — one replica's link flaps long enough for the
      heartbeat to drop it; the detector re-seeds the team from the
      healthy replica through the fleet's MAINTENANCE lane.
    """
    if seed % 3 == 0:
        return []
    if mode == "card_failure":
        fault: Dict[str, Any] = {
            "kind": "replica_card_failure", "team": seed % 2,
            "replica": (seed // 3) % 2, "at": 0.1 + 0.05 * (seed % 6),
        }
        if seed % 4 == 2:
            fault["repair_after"] = 0.3 + 0.1 * (seed % 3)
        return [fault]
    if mode == "team_wipe":
        at = 0.1 + 0.04 * (seed % 5)
        return [
            {"kind": "replica_card_failure", "team": 0, "replica": 0,
             "at": at},
            {"kind": "replica_card_failure", "team": 0, "replica": 1,
             "at": at + 0.02 + 0.02 * (seed % 4)},
        ]
    if mode == "lagging_replica":
        return [{"kind": "replica_link_flap", "team": seed % 2,
                 "replica": (seed // 2) % 2, "at": 0.1 + 0.05 * (seed % 5),
                 "up_after": 0.2 + 0.1 * (seed % 3)}]
    raise ValueError(f"unknown replication mode {mode!r}")


#: Warning leads of the ``sched:proactive`` plan, walked by the seed. The
#: migrator needs ~0.5 s to move its job, so the short leads lose it.
_PROACTIVE_LEADS = (2.0, 0.1, 0.8, 0.3, 1.2)


def _sched_faults(mode: str, seed: int) -> List[Dict[str, Any]]:
    """``card_failure`` plans for ``sched:proactive`` (card 0 warns
    0.5-0.7 s after boot and fails :data:`_PROACTIVE_LEADS` later) and
    ``sched:resilient`` (two seeds of three fail card 0, the job's card,
    0.4-2.85 s in, before or after the first checkpoint, with a 1 s repair;
    every third also fails card 1, where the job restarted, 1.5 s later).
    ``sched:swap`` gets the spare-card plan."""
    if mode == "proactive":
        lead = _PROACTIVE_LEADS[seed % len(_PROACTIVE_LEADS)]
        return [{"device": 0, "at": 0.5 + 0.1 * (seed % 3) + lead,
                 "warning_lead": lead}]
    if mode != "resilient":
        raise ValueError(f"unknown sched mode {mode!r}")
    if seed % 3 == 0:
        return []
    at = 0.4 + 0.35 * (seed % 8)
    plan = [{"device": 0, "at": at, "repair_after": 1.0}]
    if seed % 3 == 2:
        plan.append({"device": 1, "at": at + 1.5, "repair_after": 1.0})
    return plan


@dataclass
class FuzzReport:
    """Outcome of one fuzz campaign."""

    runs: List[RunResult] = field(default_factory=list)
    artifact_paths: List[str] = field(default_factory=list)

    @property
    def failures(self) -> List[RunResult]:
        return [r for r in self.runs if not r.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = [
            f"fuzz: {len(self.runs)} runs, "
            f"{len(self.runs) - len(self.failures)} ok, {len(self.failures)} failed"
        ]
        for r in self.failures:
            lines.append(f"  FAIL {r.summary()}")
        for p in self.artifact_paths:
            lines.append(f"  artifact: {p}")
        return "\n".join(lines)


def fuzz(
    scenarios: Optional[Sequence[str]] = None,
    seeds: Iterable[int] = range(10),
    *,
    artifact_dir: Optional[str] = None,
    fail_fast: bool = False,
    progress: Optional[Callable[[RunResult], None]] = None,
) -> FuzzReport:
    """Sweep every scenario under every seed with its
    :func:`default_faults` plan; oracle-check each run.

    Failures (oracle violations, deadlocks, crashes) are collected in the
    report; with ``artifact_dir``, each failure also writes a repro
    artifact. ``progress`` is called after every run (the CLI uses it for
    live output).
    """
    if scenarios is None:
        scenarios = scenario_names()
    report = FuzzReport()
    for scenario in scenarios:
        for seed in seeds:
            result = run_scenario(scenario, seed=seed, faults=default_faults(scenario, seed))
            result.sim = None  # a sweep keeps no simulators
            report.runs.append(result)
            if progress is not None:
                progress(result)
            if not result.ok:
                if artifact_dir is not None:
                    art = ReproArtifact.from_result(result)
                    os.makedirs(artifact_dir, exist_ok=True)
                    path = os.path.join(artifact_dir, art.filename())
                    report.artifact_paths.append(art.save(path))
                    flight = art.save_flight(
                        os.path.join(artifact_dir, art.flight_filename())
                    )
                    if flight is not None:
                        report.artifact_paths.append(flight)
                if fail_fast:
                    return report
    return report


def replay_artifact(path: str) -> Tuple[ReproArtifact, RunResult]:
    """Re-run the exact (scenario, seed, faults) triple an artifact records."""
    art = ReproArtifact.load(path)
    return art, run_scenario(art.scenario, seed=art.seed, faults=art.faults)
