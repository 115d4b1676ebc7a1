"""Schedule-exploration fuzzing and protocol invariant oracles.

The determinism of the simulation kernel (seed + workload → one schedule) is
a double-edged sword: it makes every run replayable, but by itself it
exercises exactly one interleaving per workload. This package turns that
determinism into systematic exploration:

* :mod:`repro.check.oracles` — machine-checked conservation properties of
  the Snapify protocol (memory accounting balances, SCIF messages are
  neither lost nor duplicated, paused processes resume or die deliberately,
  staging drains, monitor threads exit).
* :mod:`repro.check.scenarios` — self-contained checkpoint / restart /
  swap / migrate workloads parameterized by ``(schedule_seed, faults)``.
* :mod:`repro.check.fuzz` — the sweep driver: seeds × scenarios × fault
  plans, every run checked against every oracle.
* :mod:`repro.check.artifact` — minimal repro artifacts: a failing run
  serializes to a JSON file that replays with one command.
* :mod:`repro.check.reach` — which functions the catalogue never runs
  (``python -m repro.check.reach``, pinned by ``tests/test_reach.py``).

Entry points: ``snapify fuzz`` (see :mod:`repro.obs.cli`) and
``tests/test_schedule_fuzz.py``.
"""

from .artifact import ReproArtifact
from .fuzz import FuzzReport, fuzz, replay_artifact
from .oracles import ORACLES, Violation, check_all
from .scenarios import CHECKPOINT_FAULT_PHASES, SCENARIOS, RunResult, run_scenario

__all__ = [
    "CHECKPOINT_FAULT_PHASES",
    "FuzzReport",
    "ORACLES",
    "ReproArtifact",
    "RunResult",
    "SCENARIOS",
    "Violation",
    "check_all",
    "fuzz",
    "replay_artifact",
    "run_scenario",
]
