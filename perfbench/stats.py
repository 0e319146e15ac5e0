"""Summary statistics shared by the benchmark's parent and workload processes."""

from __future__ import annotations

import statistics

#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10


def median(values) -> float | None:
    values = list(values)
    return statistics.median(values) if values else None


def mean(values) -> float | None:
    values = list(values)
    return statistics.fmean(values) if values else None


def tail(values) -> dict | None:
    """The highest percentile with at least ten samples beyond it.

    Returns ``{"value", "percentile", "n"}``: the value is the sample with
    exactly ten larger ones, and the percentile is its rank.  When that
    rank would not even reach the median (fewer than 21 samples), there is
    no tail to speak of: the maximum is returned and ``percentile`` is
    ``None``.
    """
    values = sorted(values)
    n = len(values)
    if n == 0:
        return None
    if n <= 2 * TAIL_BEYOND:
        return {"value": values[-1], "percentile": None, "n": n}
    return {
        "value": values[n - TAIL_BEYOND - 1],
        "percentile": round(100.0 * (n - TAIL_BEYOND) / n, 2),
        "n": n,
    }


def spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")
