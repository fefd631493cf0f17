"""Summaries of per-operation samples."""

import statistics

# Percentiles the tail is read at, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10


def rank(n, pct):
    """Nearest rank ceil(n * pct / 100), exact for percentiles in tenths."""
    return -(-n * round(pct * 10) // 1000)


def beyond(n, pct):
    """Samples ranked above the nearest-rank pct-th percentile of n samples."""
    return n - rank(n, pct)


def tail_percentile(n):
    """Highest ladder percentile with at least MIN_BEYOND samples beyond it.

    Below 40 samples the tail is read at the median, which has ten samples
    beyond it only from 20 on; the caller records the count beyond.
    """
    for pct in TAIL_LADDER:
        if beyond(n, pct) >= MIN_BEYOND:
            return pct
    return 50.0


def nearest_rank(values, pct):
    """Nearest-rank percentile of values (failed operations sort as inf)."""
    ordered = sorted(values)
    return ordered[max(1, rank(len(ordered), pct)) - 1]


def tail(values, pct):
    """(value, samples beyond) of the pct-th percentile of values.

    At pct = 50 the value is the interpolated median, the same estimator
    as the reported median, so the tail never reads below it.
    """
    value = statistics.median(values) if pct == 50.0 else nearest_rank(values, pct)
    return value, beyond(len(values), pct)


def quartiles(values):
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
