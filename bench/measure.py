"""Summary statistics shared by the workloads."""

from __future__ import annotations

import math

#: Relative errors below this read as exact (16 digits).
ERROR_FLOOR = 1e-16


def tail_percentile(n: int) -> int:
    """Highest whole percentile, at most 99, with at least ten of ``n``
    samples beyond it; never below the median."""
    if n <= 0:
        raise ValueError("no samples")
    return max(50, min(99, math.floor(100 - 1000 / n)))


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def accuracy_digits(errors) -> float:
    """Mean of -log10(max(relative error, 1e-16)) over the checked outputs."""
    errors = list(errors)
    if not errors:
        raise ValueError("no checked outputs")
    return sum(-math.log10(max(float(e), ERROR_FLOOR)) for e in errors) / len(errors)

