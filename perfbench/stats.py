"""Order statistics for timing samples."""

from __future__ import annotations

import math
import statistics

TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0)


def percentile(values, q: float) -> float:
    """Linear-interpolated q-th percentile (numpy's default rule)."""
    xs = sorted(values)
    if not xs:
        return math.nan
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def tail_percentile(count: int) -> float | None:
    """Highest percentile with at least ten samples beyond it, or None."""
    for q in TAIL_CANDIDATES:
        if count * (1.0 - q / 100.0) >= 10.0:
            return q
    return None


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) by ``statistics.quantiles(n=4)``, the rule the spread gate uses."""
    xs = list(values)
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3
