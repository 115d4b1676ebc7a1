"""Reachability probe: which functions in ``src/repro`` the catalogue runs.

Runs every :func:`~repro.check.scenarios.scenario_names` entry at each seed
of :data:`REACH_SEEDS` under its :func:`~repro.check.fuzz.default_faults`
plan, with a ``sys.setprofile`` hook recording every code object entered.
The first seed runs traced and sampled by a
:class:`~repro.obs.timeseries.TimeSeriesRecorder` with the stock SLOs, so
the tracing and telemetry paths count; the others run plain, as the fuzzer
does, so the no-op emit paths count too.
Each ``def`` in the package (found by parsing its source) is reached when a
code object with its ``(co_filename, co_firstlineno)`` ran; a decorated def
starts at its first decorator line, as in CPython. Defs whose ``def`` line
carries ``# pragma: no cover`` are skipped, with everything nested in them,
and so is this module.

``python -m repro.check.reach`` prints the unreached ``module:qualname``
list, sorted, one per line. ``tests/golden/unreached.txt`` pins it.
"""

from __future__ import annotations

import ast
import importlib
import os
import sys
from pathlib import Path
from typing import Dict, List, Tuple

from ..obs.slo import default_slos
from ..obs.timeseries import TimeSeriesRecorder
from .fuzz import default_faults
from .scenarios import run_scenario, scenario_names

#: Schedule seeds each catalogue entry runs at; the first runs instrumented.
REACH_SEEDS = range(3)

_PACKAGE = Path(__file__).resolve().parent.parent
_PRAGMA = "# pragma: no cover"


def _module_name(path: Path) -> str:
    parts = path.relative_to(_PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def definitions() -> Dict[Tuple[str, int], str]:
    """``(filename, first line)`` → ``module:qualname`` for every def."""
    defs: Dict[Tuple[str, int], str] = {}
    for path in sorted(_PACKAGE.rglob("*.py")):
        if path == Path(__file__).resolve():
            continue
        source = path.read_text()
        lines = source.splitlines()
        module = _module_name(path)

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if _PRAGMA in lines[child.lineno - 1]:
                        continue
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    defs[(str(path), first)] = f"{module}:{prefix}{child.name}"
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(ast.parse(source, str(path)), "")
    return defs


def _sample(sim) -> None:
    TimeSeriesRecorder.install(sim, 0.05, slos=default_slos())


def unreached() -> List[str]:
    """Run the catalogue under the profile hook; return the unreached defs."""
    defs = definitions()
    # Import every module first, so import-time calls never count and the
    # result does not depend on what the caller imported before.
    for module in sorted({name.partition(":")[0] for name in defs.values()}):
        importlib.import_module(module)
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        for name in scenario_names():
            for seed in REACH_SEEDS:
                watched = seed == REACH_SEEDS[0]
                run_scenario(
                    name,
                    seed,
                    default_faults(name, seed),
                    capture_trace=watched,
                    instrument=_sample if watched else None,
                )
    finally:
        sys.setprofile(previous)
    for code in entered:
        defs.pop((os.path.realpath(code.co_filename), code.co_firstlineno), None)
    return sorted(set(defs.values()))


if __name__ == "__main__":
    print("\n".join(unreached()))
