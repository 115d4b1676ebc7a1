"""Declarative SLOs and an alert engine evaluated on each sample tick.

Rules are small objects with one job: look at the
:class:`~repro.obs.timeseries.TimeSeriesRecorder` and return the set of
currently-breaching alert keys. The :class:`SLOEngine` diffs that set
against what was firing on the previous tick and emits ``alert.fire`` /
``alert.resolve`` trace records on the transitions — so a trace of a
telemetry-enabled run carries the full alert history, and ``snapify top``
can show what is firing *now*.

Four rule families cover the paper's operational story:

* :class:`PercentileSLO` — "checkpoint pause p99 < X" style latency
  objectives over the phase digests (optionally per card);
* :class:`BurnRateSLO` — operation/ticket failure rate over a sliding
  window, the thing that lights up when a card dies mid-sweep;
* :class:`StragglerSLO` — per-card robust z-score of phase latency
  against the fleet median (MAD-based, the :func:`straggler_scores` rule
  :meth:`~repro.snapify.fleet.HealthReport.stragglers` also applies);
* :class:`RedundancySLO` — replication-team strength: every
  ``replica.team.<t>.live`` gauge (registered by
  :class:`~repro.mpi.replication.HeartbeatDetector`) must stay at or
  above the declared replica count.

A compact string form (``"pausing p99 < 0.05"``) parses via
:func:`parse_slo` so CLI flags and configs can declare objectives without
touching Python.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from statistics import median
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from .timeseries import TimeSeriesRecorder

#: Scale factor turning MAD into a consistent sigma estimate for normal data.
_MAD_SIGMA = 1.4826


def robust_zscores(values: Dict[str, float]) -> Dict[str, float]:
    """Robust (median/MAD) z-score per key; the fleet straggler detector.

    Uses the median absolute deviation scaled to sigma, which a single
    outlier cannot poison the way a mean/stddev z-score can. When MAD is
    zero (most samples identical) it falls back to a relative-to-median
    deviation so a lone huge outlier still scores high instead of
    dividing by zero.
    """
    if not values:
        return {}
    med = median(values.values())
    mad = median([abs(v - med) for v in values.values()])
    scale = mad * _MAD_SIGMA
    out: Dict[str, float] = {}
    for key, v in values.items():
        if scale > 0:
            out[key] = (v - med) / scale
        elif med > 0:
            # Degenerate spread: score by relative deviation from the median.
            out[key] = (v - med) / med
        else:
            out[key] = 0.0
    return out


#: Robust z-score above which a card counts as a straggler.
STRAGGLER_Z = 3.5
#: Seconds a straggler must also sit above the fleet's upper median. A
#: fleet whose cards agree to within microseconds has a microscopic MAD,
#: which turns harmless jitter into astronomical z-scores.
STRAGGLER_MIN_SPREAD = 0.010


def straggler_scores(values: Dict[str, float],
                     max_z: float = STRAGGLER_Z) -> Dict[str, float]:
    """The stragglers among ``values``, each with its robust z-score.

    A key straggles when its z-score (:func:`robust_zscores`) exceeds
    ``max_z`` and its value sits more than :data:`STRAGGLER_MIN_SPREAD`
    above the upper median ``sorted(values)[n // 2]``.
    """
    if not values:
        return {}
    upper = sorted(values.values())[len(values) // 2]
    return {key: z for key, z in robust_zscores(values).items()
            if z > max_z and values[key] - upper > STRAGGLER_MIN_SPREAD}


@dataclass(frozen=True)
class Breach:
    """One currently-breaching alert instance produced by a rule."""

    key: str            #: unique within the engine, e.g. "p99:pausing" or "straggler:n0.mic1"
    value: float        #: observed value
    threshold: float    #: the objective it crossed
    card: Optional[str] = None
    detail: str = ""


class SLORule:
    """Base class: subclasses implement :meth:`evaluate`."""

    name = "slo"

    def evaluate(self, recorder: "TimeSeriesRecorder", now: float) -> List[Breach]:
        raise NotImplementedError

    def describe(self) -> Dict[str, Any]:
        return {"rule": self.name}


@dataclass
class PercentileSLO(SLORule):
    """``<phase> p<q> < max_seconds`` over the recorder's phase digests."""

    phase: str
    q: float = 99.0
    max_seconds: float = 0.1
    per_card: bool = False
    min_samples: int = 3

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"p{self.q:g}:{self.phase}"

    def evaluate(self, recorder: "TimeSeriesRecorder", now: float) -> List[Breach]:
        breaches: List[Breach] = []
        cards: List[Optional[str]] = recorder.cards() if self.per_card else [None]  # type: ignore[list-item]
        for card in cards:
            digest = recorder.phase_digest(self.phase, card)
            if digest is None or digest.count < self.min_samples:
                continue
            value = digest.percentile(self.q)
            if value is not None and value > self.max_seconds:
                key = self.name if card is None else f"{self.name}@{card}"
                breaches.append(Breach(
                    key=key, value=value, threshold=self.max_seconds, card=card,
                    detail=f"{self.phase} p{self.q:g}={value:.6f}s > {self.max_seconds:.6f}s",
                ))
        return breaches

    def describe(self) -> Dict[str, Any]:
        return {"rule": self.name, "phase": self.phase, "q": self.q,
                "max_seconds": self.max_seconds, "per_card": self.per_card}


@dataclass
class BurnRateSLO(SLORule):
    """Failure fraction over a sliding window of outcome counters.

    Prefers fleet ticket outcomes (which cover dead-card rejections that
    never become operations) and falls back to raw operation outcomes
    when no fleet is involved. Fires when, over the last ``window``
    simulated seconds, ``failed / total > max_rate`` with at least
    ``min_events`` outcomes in the window; resolves once the window
    drains past the failure burst.
    """

    max_rate: float = 0.25
    window: float = 0.5
    min_events: int = 2

    @property
    def name(self) -> str:  # type: ignore[override]
        return "burn_rate"

    def evaluate(self, recorder: "TimeSeriesRecorder", now: float) -> List[Breach]:
        tickets = recorder.series.get("telemetry.tickets_total")
        source = "tickets" if tickets is not None and tickets.latest() else "ops"
        total_s = recorder.series.get(f"telemetry.{source}_total")
        failed_s = recorder.series.get(f"telemetry.{source}_failed")
        if total_s is None or failed_s is None:
            return []
        total = total_s.delta(self.window, now)
        failed = failed_s.delta(self.window, now)
        if total < self.min_events or total <= 0:
            return []
        rate = failed / total
        if rate > self.max_rate:
            return [Breach(
                key=self.name, value=rate, threshold=self.max_rate,
                detail=f"{source} failure rate {rate:.2f} over {self.window:g}s "
                       f"({failed:g}/{total:g}) > {self.max_rate:.2f}",
            )]
        return []

    def describe(self) -> Dict[str, Any]:
        return {"rule": self.name, "max_rate": self.max_rate,
                "window": self.window, "min_events": self.min_events}


@dataclass
class StragglerSLO(SLORule):
    """Per-card phase-latency robust z-score vs. the fleet median."""

    phase: str = "total"
    q: float = 99.0
    max_z: float = STRAGGLER_Z
    min_cards: int = 3
    min_samples: int = 2

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"straggler:{self.phase}"

    def evaluate(self, recorder: "TimeSeriesRecorder", now: float) -> List[Breach]:
        per_card: Dict[str, float] = {}
        for card in recorder.cards():
            digest = recorder.phase_digest(self.phase, card)
            if digest is None or digest.count < self.min_samples:
                continue
            value = digest.percentile(self.q)
            if value is not None:
                per_card[card] = value
        if len(per_card) < self.min_cards:
            return []
        return [
            Breach(
                key=f"{self.name}@{card}", value=z, threshold=self.max_z, card=card,
                detail=f"{self.phase} p{self.q:g} z={z:.2f} > {self.max_z:.2f} "
                       f"vs fleet of {len(per_card)} cards",
            )
            for card, z in sorted(straggler_scores(per_card, self.max_z).items())
        ]

    def describe(self) -> Dict[str, Any]:
        return {"rule": self.name, "phase": self.phase, "q": self.q,
                "max_z": self.max_z, "min_cards": self.min_cards,
                "min_spread": STRAGGLER_MIN_SPREAD}


@dataclass
class RedundancySLO(SLORule):
    """``replicas >= N``: every replication team keeps ``min_live`` replicas.

    Scans the ``replica.team.<t>.live`` gauge series a
    :class:`~repro.mpi.replication.HeartbeatDetector` registers. A team
    running below strength fires one alert per team; the alert resolves
    the tick after a re-seed restores the team (or the job ends and the
    recorder stops sampling new values below the bound).
    """

    min_live: int = 2

    _SERIES_RE = re.compile(r"^replica\.team\.(\d+)\.live$")

    @property
    def name(self) -> str:  # type: ignore[override]
        return "redundancy"

    def evaluate(self, recorder: "TimeSeriesRecorder", now: float) -> List[Breach]:
        breaches: List[Breach] = []
        for series_name, series in sorted(recorder.series.items()):
            m = self._SERIES_RE.match(series_name)
            if m is None:
                continue
            value = series.latest()
            if value is None or value >= self.min_live:
                continue
            team = m.group(1)
            breaches.append(Breach(
                key=f"{self.name}:team{team}", value=value,
                threshold=float(self.min_live),
                detail=f"team {team} live replicas {value:g} < {self.min_live}",
            ))
        return breaches

    def describe(self) -> Dict[str, Any]:
        return {"rule": self.name, "min_live": self.min_live}


_SLO_RE = re.compile(
    r"^\s*(?P<phase>[\w.]+)\s+p(?P<q>\d+(?:\.\d+)?)\s*<\s*(?P<max>\d+(?:\.\d+)?)\s*(?P<unit>ms|s)?\s*$"
)


def parse_slo(spec: str) -> SLORule:
    """Parse the compact string forms used by CLI flags.

    * ``"pausing p99 < 50ms"`` / ``"transferring p95 < 0.4s"`` →
      :class:`PercentileSLO` (bare numbers are seconds);
    * ``"burn_rate < 0.25"`` → :class:`BurnRateSLO`;
    * ``"straggler z > 3.5"`` → :class:`StragglerSLO`;
    * ``"replicas >= 2"`` → :class:`RedundancySLO`.
    """
    text = spec.strip()
    m = re.match(r"^replicas\s*>=\s*(\d+)$", text)
    if m:
        return RedundancySLO(min_live=int(m.group(1)))
    m = re.match(r"^burn_rate\s*<\s*(\d+(?:\.\d+)?)$", text)
    if m:
        return BurnRateSLO(max_rate=float(m.group(1)))
    m = re.match(r"^straggler\s+z\s*>\s*(\d+(?:\.\d+)?)$", text)
    if m:
        return StragglerSLO(max_z=float(m.group(1)))
    m = _SLO_RE.match(text)
    if m:
        bound = float(m.group("max"))
        if m.group("unit") == "ms":
            bound /= 1000.0
        return PercentileSLO(phase=m.group("phase"), q=float(m.group("q")),
                             max_seconds=bound)
    raise ValueError(f"unparseable SLO spec: {spec!r}")


def default_slos() -> List[SLORule]:
    """The stock objectives ``snapify top`` runs with.

    Pause-time is Snapify's headline metric (Figs. 9/10): hold the
    pausing-phase p99 under 150 ms, flag any failure burn over 25% in a
    half-second window, and flag cards whose end-to-end p99 sits 3.5
    robust sigmas above the fleet.
    """
    return [
        PercentileSLO(phase="pausing", q=99.0, max_seconds=0.150),
        BurnRateSLO(max_rate=0.25, window=0.5),
        StragglerSLO(phase="total", q=99.0, max_z=3.5),
    ]


@dataclass
class Alert:
    """Engine-side state for one alert key."""

    key: str
    rule: str
    firing: bool
    since: float
    value: float
    threshold: float
    card: Optional[str] = None
    detail: str = ""
    resolved_at: Optional[float] = None

    def describe(self) -> Dict[str, Any]:
        return {
            "key": self.key, "rule": self.rule, "firing": self.firing,
            "since": self.since, "value": self.value, "threshold": self.threshold,
            "card": self.card, "detail": self.detail, "resolved_at": self.resolved_at,
        }


class SLOEngine:
    """Evaluates rules each tick; tracks firing state; emits transitions."""

    def __init__(self, rules: List[SLORule]):
        self.rules = list(rules)
        self.firing: Dict[str, Alert] = {}
        #: Full transition history: (time, "fire"|"resolve", Alert snapshot dict).
        self.history: List[Tuple[float, str, Dict[str, Any]]] = []

    def evaluate(self, recorder: "TimeSeriesRecorder", now: float) -> List[Alert]:
        """One tick: diff breaches against firing state, emit transitions."""
        trace = getattr(recorder.sim, "trace", None)
        current: Dict[str, Tuple[SLORule, Breach]] = {}
        for rule in self.rules:
            for breach in rule.evaluate(recorder, now):
                current[breach.key] = (rule, breach)
        # Fires and refreshes.
        for key, (rule, breach) in sorted(current.items()):
            alert = self.firing.get(key)
            if alert is None:
                alert = Alert(key=key, rule=rule.name, firing=True, since=now,
                              value=breach.value, threshold=breach.threshold,
                              card=breach.card, detail=breach.detail)
                self.firing[key] = alert
                self.history.append((now, "fire", alert.describe()))
                if trace is not None:
                    trace.emit("alert.fire", key=key, rule=rule.name,
                               value=breach.value, threshold=breach.threshold,
                               card=breach.card, detail=breach.detail)
            else:
                alert.value = breach.value
                alert.detail = breach.detail
        # Resolves.
        for key in sorted(set(self.firing) - set(current)):
            alert = self.firing.pop(key)
            alert.firing = False
            alert.resolved_at = now
            self.history.append((now, "resolve", alert.describe()))
            if trace is not None:
                trace.emit("alert.resolve", key=key, rule=alert.rule,
                           since=alert.since, card=alert.card)
        return list(self.firing.values())

    def fired_keys(self) -> List[str]:
        """Every key that ever fired (including since-resolved), sorted."""
        return sorted({entry[2]["key"] for entry in self.history if entry[1] == "fire"})

    def describe(self) -> Dict[str, Any]:
        return {
            "rules": [r.describe() for r in self.rules],
            "firing": [a.describe() for _, a in sorted(self.firing.items())],
            "history": [
                {"time": t, "event": ev, **snap} for t, ev, snap in self.history
            ],
        }
