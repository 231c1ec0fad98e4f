"""Summaries of timing samples: median, supported tail, sample count.

A timing is reported as its median plus the highest percentile that
still has at least ten samples beyond it, and the count behind both,
so a p99 is never quoted from a few dozen samples.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence

#: Tail percentiles tried from the highest down.
TAIL_QUANTILES = (0.999, 0.99, 0.9)

#: Samples a tail percentile needs beyond it before it is reported.
MIN_TAIL_SAMPLES = 10


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile *q* in [0, 1] of *values*."""
    if not values:
        raise ValueError("quantile of no samples")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    if frac == 0.0 or ordered[hi] == ordered[lo]:
        return ordered[lo]  # also keeps inf - inf from reading nan
    return ordered[lo] + (ordered[hi] - ordered[lo]) * frac


def tail_quantile(n: int) -> Optional[float]:
    """The highest tail quantile *n* samples support, or ``None``."""
    for q in TAIL_QUANTILES:
        if n * (1.0 - q) >= MIN_TAIL_SAMPLES - 1e-9:
            return q
    return None


def tail_label(q: float) -> str:
    """``0.99`` -> ``"p99"``, ``0.999`` -> ``"p99.9"``."""
    return "p" + f"{q * 100:.1f}".rstrip("0").rstrip(".")


def summarize(values: Sequence[float]) -> Dict[str, object]:
    """Median, supported tail and count of *values*.

    ``{"p50": .., "tail": "p99", "tail_value": .., "n": ..}``; with no
    samples the values are ``None`` and ``n`` is 0, and with too few
    for any tail the tail keys are ``None``.
    """
    n = len(values)
    if n == 0:
        return {"p50": None, "tail": None, "tail_value": None, "n": 0}
    q = tail_quantile(n)
    return {
        "p50": quantile(values, 0.5),
        "tail": None if q is None else tail_label(q),
        "tail_value": None if q is None else quantile(values, q),
        "n": n,
    }


def quantile_or_none(values: Sequence[float], q: float) -> Optional[float]:
    """:func:`quantile`, or ``None`` when there are no samples."""
    return quantile(values, q) if values else None


def mean_or_none(values: Sequence[float]) -> Optional[float]:
    return sum(values) / len(values) if values else None
