"""Summary statistics with the benchmark's percentile rule.

A percentile is reported only when at least :data:`MIN_BEYOND` samples lie
beyond it, so a p90 needs 100 samples and a p99 needs 1000. Asking for one
with fewer raises :class:`TooFewSamples` instead of printing a number that
rests on a handful of outliers. Medians have no such floor.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence

MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of fewer samples than the rule allows."""


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q < 100) of ``values``."""
    n = len(values)
    rank = max(1, math.ceil(q / 100.0 * n))
    beyond = n - rank
    if beyond < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q:g} of {n} samples leaves {beyond} beyond it; "
            f"the rule needs {MIN_BEYOND}"
        )
    return sorted(values)[rank - 1]


def median(values: Sequence[float]) -> float:
    if not values:
        raise TooFewSamples("median of no samples")
    return statistics.median(values)


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and n of a sample series (quartiles as
    ``statistics.quantiles(values, n=4)`` gives them)."""
    out: Dict[str, float] = {"n": len(values), "median": median(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out["q1"], out["q3"] = q1, q3
    return out
