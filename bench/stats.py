"""The few statistics the benchmark needs, in one place."""

from __future__ import annotations

import math
import statistics
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1) of ``values``."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def best_mean(values: Sequence[float], keep: int, lower_is_better: bool) -> float:
    """Mean of the ``keep`` best values.

    Host noise only ever makes a timing worse, so the best few trials
    estimate the program's own speed better than the middle ones do.
    """
    if keep < 1:
        raise ValueError("keep must be >= 1")
    ordered = sorted(values, reverse=not lower_is_better)
    return statistics.fmean(ordered[:keep])


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median -- the steadiness measure the benchmark's driver applies."""
    first, _median, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)
