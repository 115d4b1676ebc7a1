"""Observability layer: spans, metrics, time series, SLOs, trace export.

Built on the span API of :mod:`repro.sim.trace` (begin/end records with
causal parent ids), this package provides what the paper's evaluation
needed by hand:

* :class:`MetricsRegistry` — per-simulator counters / gauges / histograms,
  snapshotable at any simulated time (gem5-style standardized stats);
* :class:`PhaseBreakdown` / :func:`build_span_tree` — rebuild the causal
  span tree of a checkpoint/restart and render the Figure 9/10-style
  component table;
* :func:`operation_table` — one phase row per Snapify operation, read
  from the operation manager;
* :class:`TimeSeriesRecorder` — sim-clock sampler folding the registry
  into ring-buffered series, and finished operations into exact
  phase-latency percentiles;
* :class:`SLOEngine` + rule classes — declarative objectives evaluated
  each sample tick, emitting ``alert.fire``/``alert.resolve`` records;
* :func:`postmortem_bundle` — a finished run's trace tail, failed and
  active operations, alerts and metrics, as one JSON-safe dict;
* :func:`chrome_trace` / :func:`prometheus_text` — Chrome trace-event
  JSON and Prometheus text exports, with structural validators;
* the ``snapify trace`` / ``snapify top`` CLI (:mod:`repro.obs.cli`).

See docs/observability.md for the span model and the determinism rules.
"""

from .export import (
    chrome_trace,
    parse_prometheus_text,
    prometheus_text,
    validate_prometheus_text,
    validate_trace_events,
    write_chrome_trace,
)
from .phases import (
    PhaseBreakdown,
    SpanNode,
    build_span_tree,
    operation_table,
)
from .recorder import postmortem_bundle
from .registry import Counter, Histogram, MetricsRegistry
from .slo import (
    BurnRateSLO,
    PercentileSLO,
    SLOEngine,
    SLORule,
    StragglerSLO,
    default_slos,
    parse_slo,
    robust_zscores,
)
from .timeseries import PercentileDigest, Series, TimeSeriesRecorder

__all__ = [
    "BurnRateSLO",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "PercentileDigest",
    "PercentileSLO",
    "PhaseBreakdown",
    "SLOEngine",
    "SLORule",
    "Series",
    "SpanNode",
    "StragglerSLO",
    "TimeSeriesRecorder",
    "build_span_tree",
    "chrome_trace",
    "default_slos",
    "operation_table",
    "parse_prometheus_text",
    "parse_slo",
    "postmortem_bundle",
    "prometheus_text",
    "robust_zscores",
    "validate_prometheus_text",
    "validate_trace_events",
    "write_chrome_trace",
]
