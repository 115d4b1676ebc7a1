"""Sim-clock time-series telemetry: ring-buffered series + exact percentiles.

PR 2's :class:`~repro.obs.registry.MetricsRegistry` is pull-based — a
snapshot is one instant. This module adds the *time* dimension: a
:class:`TimeSeriesRecorder` runs a daemon sampler thread on the simulated
clock, folding every numeric instrument into a bounded :class:`Series`
ring buffer with windowed aggregation (``rate``, ``delta``, ``ewma``),
and keeps exact streaming percentiles (p50/p95/p99) over operation-phase
latencies fed from ``op.state`` transitions via
:meth:`TimeSeriesRecorder.observe_operation`.

Design rules, matching the rest of ``repro.obs``:

* **Inert when absent.** Nothing in the stack imports or installs the
  recorder by default; instrumented sites reach it through
  ``getattr(sim, "snapify_telemetry", None)`` — one attribute read when
  telemetry is off, zero trace records, golden trace byte-identical.
* **Deterministic.** The sampler ticks on ``sim.sleep`` like any other
  thread, so a telemetry-enabled run is exactly as reproducible as the
  run itself; no wall-clock, no randomness.
* **Bounded.** Series are ``deque(maxlen=RING)`` rings; percentile digests
  keep a sorted list capped at ``PERCENTILE_CAP`` samples (exact until the
  cap, which no simulated run here approaches).
* **Self-ending.** The sampler returns once the event heap has been
  otherwise empty for the longest SLO window, so a driver settling with
  ``sim.run(check_deadlock=True)`` ends, and a thread still blocked beside
  it surfaces as :class:`~repro.sim.errors.DeadlockError`.

This module imports only from ``repro.sim``-free code plus the local
registry, keeping the obs package cycle-free.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from collections import deque
from dataclasses import dataclass
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

    def points(self) -> List[Tuple[float, float]]:
        return list(self._buf)

    def latest(self) -> Optional[float]:
        return self._buf[-1][1] if self._buf else None

    def latest_time(self) -> Optional[float]:
        return self._buf[-1][0] if self._buf else None

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

    def rate(self, seconds: float, now: Optional[float] = None) -> float:
        """delta / elapsed over the window, in value-units per simulated second."""
        pts = self.window(seconds, now)
        if len(pts) < 2:
            return 0.0
        dt = pts[-1][0] - pts[0][0]
        if dt <= 0:
            return 0.0
        return (pts[-1][1] - pts[0][1]) / dt

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

    def count_le(self, bound: float) -> int:
        """Samples <= bound among those retained (cumulative-bucket helper)."""
        return bisect_right(self._sorted, bound)

    def summary(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "saturated": self.saturated,
        }


@dataclass
class TickStats:
    """Bookkeeping the sampler exposes for overhead accounting/tests."""

    ticks: int = 0
    last_time: float = 0.0


class TimeSeriesRecorder:
    """Samples the registry on the sim clock; owns phase-latency digests.

    Install with :meth:`install` (spawns the daemon sampler thread and
    parks the recorder on ``sim.snapify_telemetry``); instrumented sites
    discover it with :meth:`peek` — a plain ``getattr`` that costs nothing
    when telemetry is off. Each tick folds one registry snapshot into the
    series rings and into ``metric.sample`` trace records (the counter
    tracks of a Chrome trace export).
    """

    _ATTR = "snapify_telemetry"

    def __init__(self, sim: Any, interval: float = 0.05,
                 slos: Optional[List["SLORule"]] = None):
        if not interval > 0:
            raise ValueError(f"sample interval must be > 0 (got {interval})")
        self.sim = sim
        #: Simulated seconds between samples.
        self.interval = interval
        #: Quiet simulated seconds the sampler keeps ticking once nothing
        #: else is scheduled: the longest SLO window, so windowed alerts
        #: drain and resolve before it returns.
        self.settle = max((getattr(r, "window", 0.0) for r in slos or ()),
                          default=0.0)
        self.series: Dict[str, Series] = {}
        #: (phase, card-or-None) -> digest of phase latencies in sim seconds.
        self.phase_latency: Dict[Tuple[str, Optional[str]], PercentileDigest] = {}
        self.stats = TickStats()
        #: Frame callbacks invoked after each sample tick (``snapify top``).
        self.on_tick: List[Callable[["TimeSeriesRecorder"], None]] = []
        # Internal outcome counters the burn-rate SLO reads as series.
        self.ops_total = 0
        self.ops_failed = 0
        self.tickets_total = 0
        self.tickets_failed = 0
        self._card_ops: Dict[str, int] = {}
        self._card_failed: Dict[str, int] = {}
        self.engine: Optional["SLOEngine"] = None
        if slos is not None:
            from .slo import SLOEngine
            self.engine = SLOEngine(slos)

    # -- lifecycle ----------------------------------------------------------------
    @classmethod
    def install(cls, sim: Any, interval: float = 0.05,
                slos: Optional[List["SLORule"]] = None) -> "TimeSeriesRecorder":
        """Create, park on the sim, and start the sampler thread."""
        rec = cls(sim, interval, slos)
        setattr(sim, cls._ATTR, rec)
        sim.spawn(rec._sampler(), name="telemetry.sampler", daemon=True)
        return rec

    @classmethod
    def peek(cls, sim: Any) -> Optional["TimeSeriesRecorder"]:
        """The installed recorder, or None — the zero-cost discovery path."""
        return getattr(sim, cls._ATTR, None)

    def _sampler(self):
        sim = self.sim
        quiet_since = None
        while True:
            yield sim.sleep(self.interval)
            self.sample_tick()
            # Waking to an empty heap means nothing else can ever run: only
            # this thread could schedule more, and it only reads.
            if not sim._heap:
                if quiet_since is None:
                    quiet_since = sim.now
                # Slack for the float sum of sleeps (0.1 * 3 < 0.3).
                if sim.now - quiet_since >= self.settle - 1e-9:
                    return

    # -- sampling -----------------------------------------------------------------
    def _series(self, name: str) -> Series:
        s = self.series.get(name)
        if s is None:
            s = Series(name)
            self.series[name] = s
        return s

    def sample_tick(self) -> None:
        """Fold one registry snapshot into the rings and the trace; evaluate
        SLOs."""
        snap = MetricsRegistry.of(self.sim).sample(self.sim.trace)
        now = snap["time"]
        for kind in ("counters", "gauges"):
            for name, value in snap[kind].items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    self._series(name).append(now, value)
        for name, summ in snap["histograms"].items():
            self._series(name + ".count").append(now, summ["count"])
            self._series(name + ".sum").append(now, summ["sum"])
        # Outcome counters as series, so SLO rules get windowed burn rates.
        self._series("telemetry.ops_total").append(now, self.ops_total)
        self._series("telemetry.ops_failed").append(now, self.ops_failed)
        self._series("telemetry.tickets_total").append(now, self.tickets_total)
        self._series("telemetry.tickets_failed").append(now, self.tickets_failed)
        self.stats.ticks += 1
        self.stats.last_time = now
        if self.engine is not None:
            self.engine.evaluate(self, now)
        for cb in list(self.on_tick):
            cb(self)

    # -- operation / ticket feeds ---------------------------------------------------
    def observe_operation(self, op: Any) -> None:
        """Fold a finished operation's phase latencies into the digests.

        Called by ``SnapifyOperation._finalize`` through the ``peek`` hook;
        ``op`` provides ``result`` (with ``phases``/``duration``/``ok``)
        and ``card``.
        """
        result = getattr(op, "result", None)
        if result is None:
            return
        card = getattr(op, "card", None)
        self.ops_total += 1
        if not result.ok:
            self.ops_failed += 1
        if card is not None:
            self._card_ops[card] = self._card_ops.get(card, 0) + 1
            if not result.ok:
                self._card_failed[card] = self._card_failed.get(card, 0) + 1
        for phase, seconds in result.phases.items():
            self._digest(phase, None).observe(seconds)
            if card is not None:
                self._digest(phase, card).observe(seconds)
        self._digest("total", None).observe(result.elapsed)
        if card is not None:
            self._digest("total", card).observe(result.elapsed)

    def observe_ticket(self, ticket: Any) -> None:
        """Fold a fleet ticket outcome (covers failures with no op, e.g. a
        dead card rejecting the spawn before an operation exists)."""
        self.tickets_total += 1
        if getattr(ticket, "error", None) is not None:
            self.tickets_failed += 1

    # -- reading ------------------------------------------------------------------
    def _digest(self, phase: str, card: Optional[str]) -> PercentileDigest:
        key = (phase, card)
        d = self.phase_latency.get(key)
        if d is None:
            label = phase if card is None else f"{phase}@{card}"
            d = PercentileDigest(label)
            self.phase_latency[key] = d
        return d

    def phase_digest(self, phase: str, card: Optional[str] = None) -> Optional[PercentileDigest]:
        return self.phase_latency.get((phase, card))

    def cards(self) -> List[str]:
        """All card keys seen in phase digests, sorted."""
        return sorted({c for (_, c) in self.phase_latency if c is not None})

    def phases(self) -> List[str]:
        return sorted({p for (p, _) in self.phase_latency})

    def card_failure_counts(self) -> Dict[str, Tuple[int, int]]:
        """card -> (ops seen, ops failed)."""
        return {c: (n, self._card_failed.get(c, 0)) for c, n in sorted(self._card_ops.items())}

    def describe(self) -> Dict[str, Any]:
        """JSON-safe summary: series tails, per-phase/card digests, alerts."""
        doc: Dict[str, Any] = {
            "time": getattr(self.sim, "now", 0.0),
            "ticks": self.stats.ticks,
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
            "operations": {"total": self.ops_total, "failed": self.ops_failed},
            "tickets": {"total": self.tickets_total, "failed": self.tickets_failed},
        }
        if self.engine is not None:
            doc["alerts"] = self.engine.describe()
        return doc
