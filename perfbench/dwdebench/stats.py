"""Order statistics used by the end-to-end metrics."""

from __future__ import annotations

import statistics
from dataclasses import dataclass

# A tail percentile is only reported where at least this many samples
# lie beyond it, so one slow outlier cannot be the whole tail.
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Tail:
    value: float
    percentile: float  # share of samples at or below `value`, in percent
    beyond: int  # samples ranked strictly above `value`
    n: int


def tail(samples: list[float], beyond: int = TAIL_BEYOND) -> Tail:
    """Highest percentile that still has `beyond` samples ranked above it.

    With n sorted samples that is the one of rank n - beyond (1-based):
    exactly `beyond` samples are ranked above it.  Ranks, not values,
    decide, so ties at the top still leave `beyond` samples beyond.
    Raises ValueError with n <= beyond, where no such percentile exists.
    """
    n = len(samples)
    if n <= beyond:
        raise ValueError(f"{n} samples leave no percentile with {beyond} beyond it")
    ordered = sorted(samples)
    return Tail(
        value=ordered[n - beyond - 1],
        percentile=100.0 * (n - beyond) / n,
        beyond=beyond,
        n=n,
    )


def median(samples: list[float]) -> float:
    return statistics.median(samples)


def relative_iqr(samples: list[float]) -> float:
    """Quartile distance over the median, as the acceptance rule takes it."""
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / q2
