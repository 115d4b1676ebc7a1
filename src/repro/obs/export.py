"""Chrome trace-event (``chrome://tracing`` / Perfetto) export.

Converts a traced run into the JSON object format of the Trace Event spec:

* every span becomes an async begin/end pair (``ph: "b"`` / ``"e"``) keyed
  by its span id, placed on the lane of the simulated process that opened
  it (the ``proc`` field spans carry) — one lane per simulated process;
* ``metric.sample`` records become counter tracks (``ph: "C"``);
* every other trace record becomes an instant event (``ph: "i"``), so
  protocol markers like ``snapify.pause`` show up inline;
* process lanes are labeled with ``ph: "M"`` metadata events.

Simulated seconds map to trace microseconds (the spec's unit). The output
of :func:`chrome_trace` loads directly in Perfetto (ui.perfetto.dev) or
``chrome://tracing``; :func:`validate_trace_events` checks the structural
rules and is what CI's format test runs.
"""

from __future__ import annotations

import json
import re
from typing import TYPE_CHECKING, Any, Dict, List, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.trace import Tracer

#: Lane for records that carry no ``proc`` field (driver threads, hardware).
DEFAULT_LANE = "sim"

_VALID_PHASES = {"b", "e", "i", "C", "M", "X", "B", "E"}


def _jsonable(value: Any) -> Any:
    """Trace args must be JSON-serializable; repr() anything that isn't."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def chrome_trace(tracer: "Tracer") -> Dict[str, Any]:
    """Build the Chrome trace-event JSON object for a traced run."""
    events: List[Dict[str, Any]] = []
    lanes: Dict[str, int] = {}
    open_spans: Dict[int, Dict[str, Any]] = {}  # span id -> its begin event
    last_ts = 0.0

    def lane(proc: str) -> int:
        pid = lanes.get(proc)
        if pid is None:
            pid = len(lanes) + 1
            lanes[proc] = pid
        return pid

    for rec in tracer.records:
        ts = rec.time * 1e6
        last_ts = max(last_ts, ts)
        f = rec.fields
        if rec.category == "span.begin":
            pid = lane(str(f.get("proc", DEFAULT_LANE)))
            args = {k: _jsonable(v) for k, v in f.items() if k not in ("span", "name")}
            begin = {
                "ph": "b", "cat": "span", "id": f["span"], "name": f["name"],
                "pid": pid, "tid": 0, "ts": ts, "args": args,
            }
            open_spans[f["span"]] = begin
            events.append(begin)
        elif rec.category == "span.end":
            # The end event must land on the same lane as its begin.
            begin = open_spans.pop(f["span"], None)
            pid = begin["pid"] if begin else lane(str(f.get("proc", DEFAULT_LANE)))
            args = {k: _jsonable(v) for k, v in f.items() if k not in ("span", "name")}
            events.append({
                "ph": "e", "cat": "span", "id": f["span"], "name": f["name"],
                "pid": pid, "tid": 0, "ts": ts, "args": args,
            })
        elif rec.category == "metric.sample":
            events.append({
                "ph": "C", "cat": "metric", "name": str(f["name"]),
                "pid": lane("metrics"), "tid": 0, "ts": ts,
                "args": {"value": f["value"]},
            })
        else:
            pid = lane(str(f.get("proc", DEFAULT_LANE)))
            args = {k: _jsonable(v) for k, v in f.items()}
            events.append({
                "ph": "i", "cat": "trace", "name": rec.category, "s": "t",
                "pid": pid, "tid": 0, "ts": ts, "args": args,
            })

    # Spans still open when the trace was exported (a run stopped mid-
    # operation) get a synthetic end at the last timestamp, keeping every
    # async pair matched — viewers and the validator both require it.
    for begin in open_spans.values():
        events.append({
            "ph": "e", "cat": "span", "id": begin["id"], "name": begin["name"],
            "pid": begin["pid"], "tid": 0, "ts": last_ts,
            "args": {"unfinished": True},
        })

    metadata = [
        {"ph": "M", "name": "process_name", "pid": pid, "tid": 0, "ts": 0,
         "args": {"name": proc}}
        for proc, pid in lanes.items()
    ]
    return {
        "traceEvents": metadata + events,
        "displayTimeUnit": "ms",
        "otherData": {"source": "repro.obs", "spec": "trace-event-format"},
    }


def write_chrome_trace(tracer: "Tracer", path: str) -> Dict[str, Any]:
    """Export and write to ``path``; returns the trace object."""
    doc = chrome_trace(tracer)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return doc


def validate_trace_events(doc: Dict[str, Any]) -> int:
    """Check ``doc`` against the trace-event JSON-object structural rules.

    Raises :class:`ValueError` on the first violation; returns the event
    count. This is deliberately strict about what *we* promise to emit
    (matched async begin/end pairs, non-negative timestamps, JSON-clean
    args), not just what viewers tolerate.
    """
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise ValueError("not a trace-event JSON object (missing 'traceEvents')")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("'traceEvents' must be a list")
    json.dumps(doc)  # must be losslessly serializable
    open_async: Dict[Any, Dict[str, Any]] = {}
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            raise ValueError(f"event {i} is not an object")
        ph = ev.get("ph")
        if ph not in _VALID_PHASES:
            raise ValueError(f"event {i}: bad phase {ph!r}")
        if ph == "M":
            continue
        for key in ("pid", "tid", "ts"):
            if key not in ev:
                raise ValueError(f"event {i} ({ph}): missing {key!r}")
        if ev["ts"] < 0:
            raise ValueError(f"event {i}: negative timestamp {ev['ts']}")
        if "name" not in ev:
            raise ValueError(f"event {i} ({ph}): missing name")
        if ph in ("b", "e"):
            if "id" not in ev or "cat" not in ev:
                raise ValueError(f"event {i} ({ph}): async events need id and cat")
            key = (ev["cat"], ev["id"])
            if ph == "b":
                if key in open_async:
                    raise ValueError(f"event {i}: async id {key} begun twice")
                open_async[key] = ev
            else:
                begin = open_async.pop(key, None)
                if begin is None:
                    raise ValueError(f"event {i}: async end {key} without begin")
                if begin["name"] != ev["name"]:
                    raise ValueError(
                        f"event {i}: async end name {ev['name']!r} != "
                        f"begin name {begin['name']!r}"
                    )
                if ev["ts"] < begin["ts"]:
                    raise ValueError(f"event {i}: async end precedes its begin")
        elif ph == "C":
            value = ev.get("args", {}).get("value")
            if not isinstance(value, (int, float)):
                raise ValueError(f"event {i}: counter without numeric args.value")
    if open_async:
        names = sorted(str(ev["name"]) for ev in open_async.values())[:8]
        raise ValueError(f"{len(open_async)} async span(s) never ended: {names}")
    return len(events)


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------
#
# Dotted registry names become underscore-safe metric names; the structured
# middle segments the fleet uses ("<x>.card.<n0.mic1>.<rest>" and
# "<x>.prio.<label>.<rest>") are lifted into {card=...} / {priority=...}
# labels so per-card grouping works in any Prometheus-compatible UI.
# Histograms export with cumulative `le` buckets ending at +Inf (equal to
# _count) — the shape scrapers require; parse_prometheus_text /
# validate_prometheus_text round-trip that promise in CI.

_PROM_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
_CARD_SEG_RE = re.compile(r"^(?P<prefix>.+?)\.card\.(?P<card>n\d+\.mic\d+)\.(?P<rest>.+)$")
_PRIO_SEG_RE = re.compile(r"^(?P<prefix>.+?)\.prio\.(?P<prio>[a-z]+)\.(?P<rest>.+)$")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?\s+(?P<value>\S+)$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _prom_name(name: str) -> str:
    return _PROM_NAME_RE.sub("_", name)


def _split_labels(name: str) -> Tuple[str, Dict[str, str]]:
    """Lift structured ".card.<key>." / ".prio.<label>." segments into labels."""
    labels: Dict[str, str] = {}
    m = _CARD_SEG_RE.match(name)
    if m:
        labels["card"] = m.group("card")
        name = f"{m.group('prefix')}.{m.group('rest')}"
    m = _PRIO_SEG_RE.match(name)
    if m:
        labels["priority"] = m.group("prio")
        name = f"{m.group('prefix')}.{m.group('rest')}"
    return name, labels


def _fmt_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
    return "{" + body + "}"


def _fmt_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def prometheus_text(sim: Any, telemetry: Any = None) -> str:
    """Prometheus text exposition of ``sim``'s registry (+ telemetry).

    Includes every counter, numeric gauge, and histogram in the
    :class:`~repro.obs.registry.MetricsRegistry`, and — when a
    :class:`~repro.obs.timeseries.TimeSeriesRecorder` is installed (or
    passed explicitly) — per-phase/per-card latency quantile summaries
    and a ``snapify_alert_firing`` gauge per firing alert.
    """
    from .registry import MetricsRegistry
    from .timeseries import TimeSeriesRecorder

    if telemetry is None:
        telemetry = TimeSeriesRecorder.peek(sim)
    reg = MetricsRegistry.of(sim)
    snap = reg.snapshot()
    # metric name -> (type, [(labels, value)]); insertion order = output order.
    metrics: Dict[str, Tuple[str, List[Tuple[Dict[str, str], float]]]] = {}

    def add(name: str, mtype: str, labels: Dict[str, str], value: float) -> None:
        entry = metrics.get(name)
        if entry is None:
            entry = metrics[name] = (mtype, [])
        entry[1].append((labels, value))

    for kind, mtype in (("counters", "counter"), ("gauges", "gauge")):
        for raw, value in snap[kind].items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                continue
            base, labels = _split_labels(raw)
            add(_prom_name(base), mtype, labels, float(value))
    for raw, hist in sorted(reg.histograms.items()):
        base, labels = _split_labels(raw)
        name = _prom_name(base)
        for le, cum in hist.cumulative_buckets():
            ble = dict(labels)
            ble["le"] = _fmt_value(float(le))
            add(name + "_bucket", "histogram", ble, float(cum))
        add(name + "_sum", "histogram", dict(labels), float(hist.total))
        add(name + "_count", "histogram", dict(labels), float(hist.count))

    if telemetry is not None:
        for (phase, card), digest in sorted(
            telemetry.phase_latency.items(), key=lambda kv: (kv[0][0], kv[0][1] or "")
        ):
            labels = {"phase": phase}
            if card is not None:
                labels["card"] = card
            for q, value in (("0.5", digest.p50), ("0.95", digest.p95),
                             ("0.99", digest.p99)):
                if value is None:
                    continue
                ql = dict(labels)
                ql["quantile"] = q
                add("snapify_phase_latency_seconds", "summary", ql, float(value))
            add("snapify_phase_latency_seconds_sum", "summary", dict(labels),
                float(digest.total))
            add("snapify_phase_latency_seconds_count", "summary", dict(labels),
                float(digest.count))
        engine = getattr(telemetry, "engine", None)
        if engine is not None:
            for key, alert in sorted(engine.firing.items()):
                labels = {"rule": alert.rule, "key": key}
                if alert.card is not None:
                    labels["card"] = alert.card
                add("snapify_alert_firing", "gauge", labels, 1.0)

    lines: List[str] = []
    typed: set = set()
    for name, (mtype, samples) in metrics.items():
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if mtype in ("histogram", "summary") and name.endswith(suffix):
                base = name[: -len(suffix)]
                break
        if base not in typed:
            typed.add(base)
            lines.append(f"# TYPE {base} {mtype}")
        for labels, value in samples:
            lines.append(f"{name}{_fmt_labels(labels)} {_fmt_value(value)}")
    return "\n".join(lines) + "\n"


def parse_prometheus_text(text: str) -> Tuple[Dict[str, str], Dict[str, List[Tuple[Dict[str, str], float]]]]:
    """Parse a text exposition back into ``(types, samples)``.

    ``types`` maps declared metric family names to their TYPE; ``samples``
    maps *sample* names (including ``_bucket``/``_sum``/``_count``) to
    ``(labels, value)`` lists. Raises :class:`ValueError` on malformed
    lines — this is the round-trip half of the scrapeability check.
    """
    types: Dict[str, str] = {}
    samples: Dict[str, List[Tuple[Dict[str, str], float]]] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(f"line {lineno}: malformed TYPE line: {line!r}")
            types[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        m = _SAMPLE_RE.match(line)
        if not m:
            raise ValueError(f"line {lineno}: unparseable sample: {line!r}")
        labels: Dict[str, str] = {}
        if m.group("labels"):
            pairs = _LABEL_RE.findall(m.group("labels"))
            if not pairs:
                raise ValueError(f"line {lineno}: unparseable labels: {line!r}")
            labels = dict(pairs)
        raw = m.group("value")
        if raw == "+Inf":
            value = float("inf")
        elif raw == "-Inf":
            value = float("-inf")
        else:
            try:
                value = float(raw)
            except ValueError:
                raise ValueError(f"line {lineno}: non-numeric value: {line!r}")
        samples.setdefault(m.group("name"), []).append((labels, value))
    return types, samples


def validate_prometheus_text(text: str) -> int:
    """Structural scrapeability check; returns the total sample count.

    Verifies every sample belongs to a TYPE-declared family, and that
    each histogram label-set has cumulative, non-decreasing buckets with
    a ``+Inf`` bucket equal to its ``_count``. Raises
    :class:`ValueError` on the first violation.
    """
    types, samples = parse_prometheus_text(text)

    def family(name: str) -> str:
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in types:
                return name[: -len(suffix)]
        return name

    total = 0
    for name, entries in samples.items():
        total += len(entries)
        if family(name) not in types:
            raise ValueError(f"sample {name!r} has no TYPE declaration")
    for fam, ftype in types.items():
        if ftype != "histogram":
            continue
        buckets = samples.get(fam + "_bucket", [])
        counts = samples.get(fam + "_count", [])
        groups: Dict[Tuple[Tuple[str, str], ...], List[Tuple[float, float]]] = {}
        for labels, value in buckets:
            le = labels.get("le")
            if le is None:
                raise ValueError(f"{fam}_bucket sample without le label")
            key = tuple(sorted((k, v) for k, v in labels.items() if k != "le"))
            bound = float("inf") if le == "+Inf" else float(le)
            groups.setdefault(key, []).append((bound, value))
        count_by_key = {
            tuple(sorted(labels.items())): value for labels, value in counts
        }
        for key, seq in groups.items():
            seq.sort()
            if not seq or seq[-1][0] != float("inf"):
                raise ValueError(f"{fam}{dict(key)}: missing +Inf bucket")
            values = [v for _, v in seq]
            if any(b > a for a, b in zip(values[1:], values)):
                raise ValueError(f"{fam}{dict(key)}: buckets not cumulative")
            expected = count_by_key.get(key)
            if expected is not None and seq[-1][1] != expected:
                raise ValueError(
                    f"{fam}{dict(key)}: +Inf bucket {seq[-1][1]} != _count {expected}"
                )
    return total
