"""Order statistics the benchmark reports."""

from __future__ import annotations

import numpy as np

#: Samples that must lie beyond a reported tail percentile.
BEYOND = 10


def median(values) -> float:
    return float(np.median(values)) if len(values) else float("nan")


def mean(values) -> float:
    return float(np.mean(values)) if len(values) else float("nan")


def tail(values, cap: float) -> tuple[float, float]:
    """``(value, level)``: the highest percentile, at most ``cap``, with at
    least :data:`BEYOND` samples beyond it (never below the median)."""
    n = len(values)
    if not n:
        return float("nan"), 0.0
    level = max(0.5, min(cap, (n - BEYOND) / n))
    return float(np.percentile(values, 100 * level)), level
