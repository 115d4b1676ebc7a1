"""Sim-clock time-series telemetry: ring-buffered series + exact percentiles.

PR 2's :class:`~repro.obs.registry.MetricsRegistry` is pull-based — a
snapshot is one instant. This module adds the *time* dimension: a
:class:`TimeSeriesRecorder` samples on the simulated clock, folding every
numeric instrument into a bounded :class:`Series` ring buffer with
windowed aggregation (``delta``, ``ewma``), and keeps exact streaming
percentiles (p50/p95/p99) over the phase latencies of finished Snapify
operations.

Design rules, matching the rest of ``repro.obs``:

* **A reader.** The recorder copies nothing while the run is live: each
  tick (and each read) folds in the operations the
  :class:`~repro.snapify.ops.OperationManager` finished since the last
  fold, in completion order, and takes operation and ticket outcome
  totals from that manager and the fleet managers' counters. Nothing in
  the stack installs it by default, so an uninstrumented run emits no
  telemetry record and keeps the golden trace byte-identical.
* **Moves nothing.** The recorder is the kernel's observer
  (:meth:`~repro.sim.kernel.Simulator.observe`): the run loops call
  :meth:`TimeSeriesRecorder.sample_tick` when the clock first passes
  each interval boundary. It is no thread and draws no sequence key, so
  a sampled run keeps the operations, instants and outcome of the plain
  run, and ends at the same last event. No wall-clock, no randomness.
* **Bounded.** Series are ``deque(maxlen=RING)`` rings; percentile digests
  keep a sorted list capped at ``PERCENTILE_CAP`` samples (exact until the
  cap, which no simulated run here approaches).

This module imports only from ``repro.sim``-free code plus the local
registry, keeping the obs package cycle-free.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from .registry import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from .slo import SLOEngine, SLORule


#: Ring length per series (samples retained).
RING = 512
#: Hard cap on retained percentile samples per (phase, card) digest.
PERCENTILE_CAP = 100_000
#: EWMA smoothing factor :meth:`TimeSeriesRecorder.describe` reports with.
EWMA_ALPHA = 0.3


class Series:
    """A bounded (time, value) ring with windowed aggregation."""

    __slots__ = ("name", "_buf")

    def __init__(self, name: str, maxlen: int = RING):
        self.name = name
        self._buf: deque = deque(maxlen=maxlen)

    def append(self, t: float, value: float) -> None:
        self._buf.append((t, value))

    def __len__(self) -> int:
        return len(self._buf)

    def latest(self) -> Optional[float]:
        return self._buf[-1][1] if self._buf else None

    def window(self, seconds: float, now: Optional[float] = None) -> List[Tuple[float, float]]:
        """Points with ``now - seconds <= t <= now`` (``now`` defaults to
        the last sample, making the upper bound a no-op on live reads)."""
        if not self._buf:
            return []
        if now is None:
            now = self._buf[-1][0]
        cutoff = now - seconds
        return [(t, v) for t, v in self._buf if cutoff <= t <= now]

    def delta(self, seconds: float, now: Optional[float] = None) -> float:
        """last - first value over the window (0.0 with fewer than 2 points)."""
        pts = self.window(seconds, now)
        if len(pts) < 2:
            return 0.0
        return pts[-1][1] - pts[0][1]

    def ewma(self, alpha: float = EWMA_ALPHA) -> Optional[float]:
        """Exponentially weighted moving average over the whole ring."""
        acc: Optional[float] = None
        for _, v in self._buf:
            acc = v if acc is None else alpha * v + (1.0 - alpha) * acc
        return acc


class PercentileDigest:
    """Exact streaming percentiles via an insertion-sorted sample list.

    Exact (nearest-rank with linear interpolation) as long as the stream
    stays under ``cap`` samples; past the cap new samples are dropped and
    :attr:`saturated` flips so exporters can flag the digest as truncated.
    """

    __slots__ = ("name", "cap", "count", "total", "saturated", "_sorted")

    def __init__(self, name: str, cap: int = PERCENTILE_CAP):
        self.name = name
        self.cap = cap
        self.count = 0
        self.total = 0.0
        self.saturated = False
        self._sorted: List[float] = []

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if len(self._sorted) < self.cap:
            insort(self._sorted, value)
        else:
            self.saturated = True

    def percentile(self, q: float) -> Optional[float]:
        """The q-th percentile (q in [0, 100]), interpolated between ranks."""
        s = self._sorted
        if not s:
            return None
        if len(s) == 1:
            return s[0]
        rank = (q / 100.0) * (len(s) - 1)
        lo = int(rank)
        hi = min(lo + 1, len(s) - 1)
        frac = rank - lo
        return s[lo] * (1.0 - frac) + s[hi] * frac

    @property
    def p50(self) -> Optional[float]:
        return self.percentile(50.0)

    @property
    def p95(self) -> Optional[float]:
        return self.percentile(95.0)

    @property
    def p99(self) -> Optional[float]:
        return self.percentile(99.0)

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def summary(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "saturated": self.saturated,
        }


class TimeSeriesRecorder:
    """Samples the registry on the sim clock; owns phase-latency digests.

    Install with :meth:`install` (makes :meth:`sample_tick` the kernel's
    observer and parks the recorder on the simulator, where :meth:`peek`
    finds it).
    Each tick reads every registry instrument once into the series rings
    and into ``metric.sample`` trace records (the counter tracks of a
    Chrome trace export), and folds the newly finished operations into the
    digests.
    """

    _ATTR = "snapify_telemetry"

    def __init__(self, sim: Any, interval: float = 0.05,
                 slos: Optional[List["SLORule"]] = None):
        if not interval > 0:
            raise ValueError(f"sample interval must be > 0 (got {interval})")
        self.sim = sim
        #: Simulated seconds between samples.
        self.interval = interval
        self.series: Dict[str, Series] = {}
        self._phase_latency: Dict[Tuple[str, Optional[str]], PercentileDigest] = {}
        #: Operations of the manager's ``finished`` list already folded.
        self._folded = 0
        #: Samples taken so far.
        self.ticks = 0
        #: Frame callbacks invoked after each sample tick (``snapify top``).
        self.on_tick: List[Callable[["TimeSeriesRecorder"], None]] = []
        self.engine: Optional["SLOEngine"] = None
        if slos is not None:
            from .slo import SLOEngine
            self.engine = SLOEngine(slos)

    # -- lifecycle ----------------------------------------------------------------
    @classmethod
    def install(cls, sim: Any, interval: float = 0.05,
                slos: Optional[List["SLORule"]] = None) -> "TimeSeriesRecorder":
        """Create, park on the sim, and sample at every interval boundary."""
        rec = cls(sim, interval, slos)
        setattr(sim, cls._ATTR, rec)
        sim.observe(interval, rec.sample_tick)
        return rec

    @classmethod
    def peek(cls, sim: Any) -> Optional["TimeSeriesRecorder"]:
        """The installed recorder, or None — the zero-cost discovery path."""
        return getattr(sim, cls._ATTR, None)

    # -- sampling -----------------------------------------------------------------
    def _series(self, name: str) -> Series:
        s = self.series.get(name)
        if s is None:
            s = Series(name)
            self.series[name] = s
        return s

    def _sample(self, name: str, value: Any, now: float) -> None:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            self.sim.trace.emit("metric.sample", name=name, value=value)
            self._series(name).append(now, value)

    def sample_tick(self) -> None:
        """Read every instrument once: each numeric counter and gauge becomes
        a ``metric.sample`` trace record and a series point, each histogram a
        ``.count`` and a ``.sum`` point. Fold the newly finished operations
        into the digests; evaluate SLOs."""
        self._fold()
        reg = MetricsRegistry.of(self.sim)
        now = self.sim.now
        for name, counter in sorted(reg.counters.items()):
            self._sample(name, counter.value, now)
        for name, fn in sorted(reg.gauges.items()):
            try:
                value = fn()
            except Exception:
                continue  # reading a torn-down component: no sample
            self._sample(name, value, now)
        for name, h in sorted(reg.histograms.items()):
            self._series(name + ".count").append(now, h.count)
            self._series(name + ".sum").append(now, h.total)
        # Outcome totals as series, so SLO rules get windowed burn rates.
        outcomes = self.outcomes()
        for source, prefix in (("operations", "ops"), ("tickets", "tickets")):
            for what, value in outcomes[source].items():
                self._series(f"telemetry.{prefix}_{what}").append(now, value)
        self.ticks += 1
        if self.engine is not None:
            self.engine.evaluate(self, now)
        for cb in list(self.on_tick):
            cb(self)

    # -- the run's outcomes ----------------------------------------------------
    def _finished(self) -> List[Any]:
        from ..snapify.ops import OperationManager

        mgr = OperationManager.peek(self.sim)
        return mgr.finished if mgr is not None else []

    def _fold(self) -> None:
        """Fold the operations finished since the last fold into the phase
        digests, in completion order (so digest sums are reproducible)."""
        finished = self._finished()
        for op in finished[self._folded:]:
            for phase, seconds in [*op.result.phases.items(),
                                   ("total", op.result.elapsed)]:
                self._digest(phase, None).observe(seconds)
                if op.card is not None:
                    self._digest(phase, op.card).observe(seconds)
        self._folded = len(finished)

    def outcomes(self) -> Dict[str, Dict[str, int]]:
        """``{"total", "failed"}`` of the finished operations and of the
        fleet tickets (which also cover failures that never became an
        operation, e.g. a dead card rejecting the spawn)."""
        from ..snapify.fleet import FleetManager

        finished = self._finished()
        fleets = FleetManager.all_of(self.sim)
        tickets_failed = sum(f.m_failed.value for f in fleets)
        return {
            "operations": {"total": len(finished),
                           "failed": sum(not op.result.ok for op in finished)},
            "tickets": {"total": sum(f.m_completed.value for f in fleets)
                        + tickets_failed,
                        "failed": tickets_failed},
        }

    # -- reading ------------------------------------------------------------------
    def _digest(self, phase: str, card: Optional[str]) -> PercentileDigest:
        key = (phase, card)
        d = self._phase_latency.get(key)
        if d is None:
            label = phase if card is None else f"{phase}@{card}"
            d = PercentileDigest(label)
            self._phase_latency[key] = d
        return d

    @property
    def phase_latency(self) -> Dict[Tuple[str, Optional[str]], PercentileDigest]:
        """(phase, card-or-None) -> digest of phase latencies in sim seconds,
        with every operation finished so far folded in."""
        self._fold()
        return self._phase_latency

    def phase_digest(self, phase: str, card: Optional[str] = None) -> Optional[PercentileDigest]:
        return self.phase_latency.get((phase, card))

    def cards(self) -> List[str]:
        """All card keys seen in phase digests, sorted."""
        return sorted({c for (_, c) in self.phase_latency if c is not None})

    def card_failure_counts(self) -> Dict[str, Tuple[int, int]]:
        """card -> (operations finished, operations failed)."""
        counts: Dict[str, Tuple[int, int]] = {}
        for op in self._finished():
            if op.card is not None:
                n, failed = counts.get(op.card, (0, 0))
                counts[op.card] = (n + 1, failed + (not op.result.ok))
        return dict(sorted(counts.items()))

    def describe(self) -> Dict[str, Any]:
        """JSON-safe summary: series tails, per-phase/card digests, alerts."""
        doc: Dict[str, Any] = {
            "time": getattr(self.sim, "now", 0.0),
            "ticks": self.ticks,
            "interval": self.interval,
            "series": {
                name: {
                    "latest": s.latest(),
                    "ewma": s.ewma(),
                    "points": len(s),
                }
                for name, s in sorted(self.series.items())
            },
            "phase_latency": {
                (phase if card is None else f"{phase}@{card}"): d.summary()
                for (phase, card), d in sorted(
                    self.phase_latency.items(), key=lambda kv: (kv[0][0], kv[0][1] or "")
                )
            },
            **self.outcomes(),
        }
        if self.engine is not None:
            doc["alerts"] = self.engine.describe()
        return doc
