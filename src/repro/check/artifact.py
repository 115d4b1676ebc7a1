"""Minimal repro artifacts: a failing fuzz run as a one-command replay.

An artifact is a small JSON file holding exactly the inputs that determine
a run — scenario name, schedule seed, fault plan — plus the observed
failure (outcome, error, violations, wait-for graph, and the post-mortem
bundle of a traced replay) for human triage.
Because runs are pure functions of those inputs, replaying the artifact
reproduces the failure byte-for-byte::

    PYTHONPATH=src python -m repro.obs.cli fuzz --replay <artifact.json>
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Tuple

FORMAT_VERSION = 1


@dataclass
class ReproArtifact:
    """The (inputs, observation) pair of one failing run."""

    scenario: str
    seed: Optional[int]
    faults: Tuple[Dict[str, Any], ...] = ()
    outcome: str = "crash"
    error: Optional[str] = None
    error_type: Optional[str] = None
    violations: List[str] = field(default_factory=list)
    waitfor: List[Dict[str, Any]] = field(default_factory=list)
    final_time: float = 0.0
    #: describe() dicts of the run's Snapify operations (id, kind, pid,
    #: state, error) — triage starts from the operation that wedged.
    operations: List[Dict[str, Any]] = field(default_factory=list)
    #: Post-mortem bundle of a traced replay of the failing run (recent
    #: trace records per category, failed and active operations, alert
    #: state, metric snapshot); None for a passing run.
    postmortem: Optional[Dict[str, Any]] = None
    version: int = FORMAT_VERSION

    @classmethod
    def from_result(cls, result) -> "ReproArtifact":
        """Build from a :class:`repro.check.scenarios.RunResult`.

        Fuzz runs go untraced, so a failing run's post-mortem bundle is
        read from a traced replay of its (scenario, seed, faults) triple —
        runs are pure functions of it, tracing included.
        """
        postmortem = None
        if not result.ok:
            from ..obs.recorder import postmortem_bundle
            from .scenarios import run_scenario

            replay = run_scenario(result.scenario, seed=result.seed,
                                  faults=result.faults, capture_trace=True)
            postmortem = postmortem_bundle(replay.sim)
        return cls(
            scenario=result.scenario,
            seed=result.seed,
            faults=result.faults,
            outcome=result.outcome,
            error=result.error,
            error_type=result.error_type,
            violations=[str(v) for v in result.violations],
            waitfor=result.waitfor,
            final_time=result.final_time,
            operations=list(result.operations),
            postmortem=postmortem,
        )

    # -- persistence -------------------------------------------------------
    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    def save(self, path: str) -> str:
        with open(path, "w") as f:
            f.write(self.to_json())
            f.write("\n")
        return path

    @classmethod
    def load(cls, path: str) -> "ReproArtifact":
        with open(path) as f:
            data = json.load(f)
        data.pop("version", None)
        known = {k: data[k] for k in data if k in cls.__dataclass_fields__}
        art = cls(**known)
        art.faults = tuple(art.faults)
        return art

    def replay_command(self, path: str) -> str:
        """The one command that reproduces this failure."""
        return f"PYTHONPATH=src python -m repro.obs.cli fuzz --replay {path}"

    def filename(self) -> str:
        """Stable, filesystem-safe name for this artifact."""
        scen = self.scenario.replace(":", "-")
        return f"repro_{scen}_seed{self.seed}.json"

    def flight_filename(self) -> str:
        """Name of the sibling flight-recorder bundle dump."""
        scen = self.scenario.replace(":", "-")
        return f"repro_{scen}_seed{self.seed}.flight.json"

    def save_flight(self, path: str) -> Optional[str]:
        """Write the post-mortem bundle alone (CI uploads it as an
        artifact); returns the path, or None when the run had no bundle."""
        if self.postmortem is None:
            return None
        with open(path, "w") as f:
            json.dump(self.postmortem, f, indent=2, sort_keys=True)
            f.write("\n")
        return path
