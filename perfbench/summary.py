"""Order statistics used by the benchmark's figures."""
from __future__ import annotations

import statistics

TAIL_BEYOND = 10


def tail(values) -> tuple[float, float, int]:
    """(value, percentile, sample count) of the highest percentile that
    leaves at least TAIL_BEYOND samples beyond it."""
    n = len(values)
    if n <= TAIL_BEYOND:
        raise ValueError(f"a tail needs more than {TAIL_BEYOND} samples, got {n}")
    k = n - TAIL_BEYOND
    return sorted(values)[k - 1], 100.0 * k / n, n


def spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
