"""Post-mortem bundles: what a failing run was doing when it ended.

:func:`postmortem_bundle` reads a finished run into one JSON-safe dict:
the tail of its trace (the last ``recent`` records per category), its
failed and still-active Snapify operations from the
:class:`~repro.snapify.ops.OperationManager`, the alert state and a
metrics snapshot. It copies nothing while the run is live. Fuzz runs go
untraced, so a failing run's bundle comes from a traced replay of its
(scenario, seed, faults) triple:
:meth:`repro.check.artifact.ReproArtifact.from_result` builds it, and the
fuzzer dumps it beside the repro artifact as ``*.flight.json``.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict

from .export import _jsonable
from .registry import MetricsRegistry
from .timeseries import TimeSeriesRecorder

#: Bundle schema version, bumped on incompatible shape changes.
BUNDLE_FORMAT = 1


def _record_dict(rec: Any) -> Dict[str, Any]:
    return {
        "time": rec.time,
        "category": rec.category,
        "fields": {k: _jsonable(v) for k, v in rec.fields.items()},
    }


def postmortem_bundle(sim: Any, recent: int = 64) -> Dict[str, Any]:
    """The post-mortem bundle of ``sim`` as it stands.

    ``events`` holds the last ``recent`` trace records per category and
    ``dropped`` counts the older ones left out; ``failures`` describes
    every FAILED operation (with the time it failed), ``active_ops`` every
    operation that never reached a terminal state.
    """
    from ..snapify.ops import FAILED, OperationManager

    events: Dict[str, Deque[Any]] = {}
    dropped: Dict[str, int] = {}
    for rec in sim.trace.records:
        ring = events.get(rec.category)
        if ring is None:
            ring = events[rec.category] = deque(maxlen=recent)
        elif len(ring) == recent:
            dropped[rec.category] = dropped.get(rec.category, 0) + 1
        ring.append(rec)
    mgr = OperationManager.peek(sim)
    ops = list(mgr.operations.values()) if mgr is not None else []
    telemetry = TimeSeriesRecorder.peek(sim)
    engine = telemetry.engine if telemetry is not None else None
    metrics = MetricsRegistry.of(sim).snapshot()
    metrics["gauges"] = {k: _jsonable(v) for k, v in metrics["gauges"].items()}
    return {
        "format": BUNDLE_FORMAT,
        "time": sim.now,
        "events": {
            cat: [_record_dict(r) for r in ring]
            for cat, ring in sorted(events.items())
        },
        "dropped": dict(sorted(dropped.items())),
        "failures": [dict(op.describe(), time=op.history[-1][1])
                     for op in ops if op.state == FAILED],
        "active_ops": [op.describe() for op in ops if not op.is_terminal],
        "alerts": engine.describe() if engine is not None else None,
        "metrics": metrics,
    }
