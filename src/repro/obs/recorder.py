"""Bounded flight recorder: the last N trace records, ready for post-mortem.

A fuzz failure or an operation death is only debuggable if you can see
what the system was doing *just before* — but keeping a full trace of a
4500-run fuzz sweep is not an option. The :class:`FlightRecorder`
attaches as a tracer sink and keeps a bounded ring (``deque(maxlen=N)``)
of records per category; :func:`postmortem_bundle` assembles those rings
with the active-operation table, firing-alert state, and a metrics
snapshot into one JSON-safe dict that rides inside fuzz repro artifacts
(``repro_*.json`` → ``postmortem``) and is dumped beside them as
``*.flight.json``.

Like the rest of the telemetry stack it is strictly opt-in: nothing
installs a recorder by default, and an uninstalled recorder costs zero —
``postmortem_bundle`` can still synthesize a bundle from a captured
tracer after the fact.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional

from .export import _jsonable
from .registry import MetricsRegistry

#: Bundle schema version, bumped on incompatible shape changes.
BUNDLE_FORMAT = 1


def _record_dict(rec: Any) -> Dict[str, Any]:
    return {
        "time": rec.time,
        "category": rec.category,
        "fields": {k: _jsonable(v) for k, v in rec.fields.items()},
    }


def _safe_metrics(sim: Any) -> Dict[str, Any]:
    snap = MetricsRegistry.of(sim).snapshot()
    snap["gauges"] = {k: _jsonable(v) for k, v in snap["gauges"].items()}
    return snap


class FlightRecorder:
    """Keeps the last ``per_category`` trace records of every category.

    Install with :meth:`install`; the recorder registers itself as a sink
    on ``sim.trace`` (sinks only see *emitted* records, so with tracing
    disabled the recorder sees nothing and costs nothing). Operation
    failures are additionally latched via :meth:`note_failure` from
    ``SnapifyOperation._finalize`` so the bundle names the casualties
    even when their records have already rotated out of the rings.
    """

    _ATTR = "snapify_flight_recorder"

    def __init__(self, sim: Any, per_category: int = 64, max_failures: int = 32):
        self.sim = sim
        self.per_category = per_category
        self.events: Dict[str, Deque[Any]] = {}
        self.failures: Deque[Dict[str, Any]] = deque(maxlen=max_failures)
        self.dropped: Dict[str, int] = {}
        tracer = getattr(sim, "trace", None)
        if tracer is not None and hasattr(tracer, "sinks"):
            tracer.sinks.append(self._sink)

    @classmethod
    def install(cls, sim: Any, per_category: int = 64) -> "FlightRecorder":
        rec = getattr(sim, cls._ATTR, None)
        if rec is None:
            rec = cls(sim, per_category=per_category)
            setattr(sim, cls._ATTR, rec)
        return rec

    @classmethod
    def peek(cls, sim: Any) -> Optional["FlightRecorder"]:
        return getattr(sim, cls._ATTR, None)

    # -- feeds --------------------------------------------------------------
    def _sink(self, rec: Any) -> None:
        ring = self.events.get(rec.category)
        if ring is None:
            ring = self.events[rec.category] = deque(maxlen=self.per_category)
        elif len(ring) == self.per_category:
            self.dropped[rec.category] = self.dropped.get(rec.category, 0) + 1
        ring.append(rec)

    def note_failure(self, op: Any) -> None:
        """Latch a failed operation's summary (called from the op machine)."""
        entry = dict(op.describe())
        entry["time"] = getattr(self.sim, "now", 0.0)
        self.failures.append(entry)

    # -- output -------------------------------------------------------------
    def bundle(self) -> Dict[str, Any]:
        """The JSON-safe post-mortem bundle for this simulator, now."""
        doc: Dict[str, Any] = {
            "format": BUNDLE_FORMAT,
            "time": getattr(self.sim, "now", 0.0),
            "events": {
                cat: [_record_dict(r) for r in ring]
                for cat, ring in sorted(self.events.items())
            },
            "dropped": dict(sorted(self.dropped.items())),
            "failures": list(self.failures),
            "active_ops": _active_ops(self.sim),
            "alerts": _alert_state(self.sim),
            "metrics": _safe_metrics(self.sim),
        }
        return doc


def _active_ops(sim: Any) -> List[Dict[str, Any]]:
    mgr = getattr(sim, "snapify_operations", None)
    return mgr.describe_pending() if mgr is not None else []


def _alert_state(sim: Any) -> Optional[Dict[str, Any]]:
    telem = getattr(sim, "snapify_telemetry", None)
    engine = getattr(telem, "engine", None) if telem is not None else None
    return engine.describe() if engine is not None else None


def postmortem_bundle(sim: Any, recent: int = 64) -> Dict[str, Any]:
    """A bundle for ``sim`` whether or not a recorder was installed.

    With a :class:`FlightRecorder` installed this is its live rings;
    otherwise the tail of the captured trace (last ``recent`` records per
    category) is synthesized into the same shape, so fuzz failure paths
    always produce a bundle.
    """
    fr = FlightRecorder.peek(sim)
    if fr is not None:
        return fr.bundle()
    events: Dict[str, Deque[Any]] = {}
    tracer = getattr(sim, "trace", None)
    for rec in getattr(tracer, "records", []) or []:
        ring = events.get(rec.category)
        if ring is None:
            ring = events[rec.category] = deque(maxlen=recent)
        ring.append(rec)
    return {
        "format": BUNDLE_FORMAT,
        "time": getattr(sim, "now", 0.0),
        "events": {
            cat: [_record_dict(r) for r in ring]
            for cat, ring in sorted(events.items())
        },
        "dropped": {},
        "failures": [],
        "active_ops": _active_ops(sim),
        "alerts": _alert_state(sim),
        "metrics": _safe_metrics(sim),
    }
