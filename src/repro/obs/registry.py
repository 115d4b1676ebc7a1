"""A per-simulator metrics registry: counters, gauges, histograms.

Modeled on gem5's standardized-stats idea: every subsystem publishes its
instruments under one registry per :class:`~repro.sim.kernel.Simulator`, so
any point of a run can be snapshot into a uniform, comparable dictionary —
the foundation for regression gating and cross-run comparison.

Design rules (the hot path pays for nothing):

* **Counters** are pushed by the instrumented site (``counter.inc(n)`` is a
  plain integer add) and are only placed on *event* paths — a pause, a swap
  decision, a daemon connection — never inside the kernel dispatch loop.
* **Gauges** are *pull-based*: a gauge is a callable evaluated only when a
  snapshot is taken, so instrumenting e.g. the PCIe link's cumulative byte
  count costs the hot path absolutely nothing (the link already keeps the
  attribute; the gauge just reads it later).
* **Histograms** keep bounded state (count/sum/min/max), never the samples.

This module deliberately imports nothing from :mod:`repro.sim`, so any layer
(including the kernel, if it ever wants to) can use it without cycles.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple


class Counter:
    """A monotonically increasing count (events, bytes, decisions)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Counter {self.name}={self.value}>"


#: Default bucket boundaries (seconds): spans sub-ms pauses to 10 s sweeps.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Histogram:
    """Bounded summary of a sample stream (count, sum, min, max, buckets).

    Buckets use Prometheus semantics: boundary ``b`` counts samples with
    ``value <= b``, plus an implicit ``+Inf`` bucket equal to ``count`` —
    :meth:`cumulative_buckets` renders exactly the shape a
    ``le``-labelled ``_bucket`` series needs, so the text exposition in
    :func:`repro.obs.export.prometheus_text` is actually scrapeable.
    """

    __slots__ = ("name", "count", "total", "min", "max", "buckets", "_bucket_counts")

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.buckets: Tuple[float, ...] = tuple(sorted(buckets))
        # Per-bucket (non-cumulative) counts; index len(buckets) is +Inf.
        self._bucket_counts: List[int] = [0] * (len(self.buckets) + 1)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self._bucket_counts[bisect_left(self.buckets, value)] += 1

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """``(le, cumulative_count)`` pairs ending with ``(inf, count)``."""
        out: List[Tuple[float, int]] = []
        acc = 0
        for bound, n in zip(self.buckets, self._bucket_counts):
            acc += n
            out.append((bound, acc))
        out.append((float("inf"), self.count))
        return out

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def summary(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            # +Inf rendered as a string: bundles/artifacts must stay strict JSON.
            "buckets": [["+Inf" if le == float("inf") else le, n]
                        for le, n in self.cumulative_buckets()],
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Histogram {self.name} n={self.count} mean={self.mean}>"


class MetricsRegistry:
    """All instruments of one simulator, keyed by dotted metric name."""

    #: Attribute the registry parks itself under on the Simulator instance.
    _ATTR = "metrics_registry"

    def __init__(self, sim: Any = None):
        self.sim = sim
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Callable[[], Any]] = {}
        self.histograms: Dict[str, Histogram] = {}

    @classmethod
    def of(cls, sim: Any) -> "MetricsRegistry":
        """The registry of ``sim``, created on first use."""
        reg = getattr(sim, cls._ATTR, None)
        if reg is None:
            reg = cls(sim)
            setattr(sim, cls._ATTR, reg)
        return reg

    # -- instrument factories ---------------------------------------------------
    def counter(self, name: str) -> Counter:
        c = self.counters.get(name)
        if c is None:
            c = Counter(name)
            self.counters[name] = c
        return c

    def gauge(self, name: str, fn: Callable[[], Any]) -> None:
        """Register (or replace) a pull-based gauge provider."""
        self.gauges[name] = fn

    def histogram(self, name: str,
                  buckets: Optional[Sequence[float]] = None) -> Histogram:
        h = self.histograms.get(name)
        if h is None:
            h = Histogram(name, buckets=buckets or DEFAULT_BUCKETS)
            self.histograms[name] = h
        return h

    # -- reading ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """All instruments read at this instant of simulated time.

        Gauge providers that raise (e.g. reading a torn-down component) are
        reported as ``None`` rather than killing the snapshot.
        """
        gauges: Dict[str, Any] = {}
        for name, fn in self.gauges.items():
            try:
                gauges[name] = fn()
            except Exception:
                gauges[name] = None
        return {
            "time": getattr(self.sim, "now", 0.0),
            "counters": {n: c.value for n, c in sorted(self.counters.items())},
            "gauges": dict(sorted(gauges.items())),
            "histograms": {n: h.summary() for n, h in sorted(self.histograms.items())},
        }

    def sample(self, tracer: Any) -> Dict[str, Any]:
        """Emit one ``metric.sample`` trace record per numeric instrument
        and return the :meth:`snapshot` they were read from.

        This is the bridge from the registry to the trace: sampled values
        become counter tracks in the Chrome trace-event export. Sampling is
        explicit (the telemetry sampler's tick) — the registry never emits
        on its own.
        """
        snap = self.snapshot()
        for kind in ("counters", "gauges"):
            for name, value in snap[kind].items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    tracer.emit("metric.sample", name=name, value=value)
        return snap
