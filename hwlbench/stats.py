"""Summary statistics for the benchmark's samples."""

from __future__ import annotations

import statistics

MIN_BEYOND = 10


def summarize(values) -> dict:
    """Median, sample count and the highest percentile that still has at
    least ``MIN_BEYOND`` samples above it (``None`` when there are too few).

    The percentile is the nearest-rank one: with the samples sorted, rank
    ``k = n - MIN_BEYOND`` (1-based) is the highest rank that leaves
    ``MIN_BEYOND`` samples beyond it, and it is percentile ``100 * k / n``.
    """
    ordered = sorted(float(v) for v in values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    out = {"median": statistics.median(ordered), "n": n, "tail_pct": None, "tail": None}
    k = n - MIN_BEYOND
    if k >= 1:
        out["tail_pct"] = 100.0 * k / n
        out["tail"] = ordered[k - 1]
    return out


def largest_prime_factor(n: int) -> int:
    """Largest prime factor of ``n`` (1 for n = 1)."""
    if n < 1:
        raise ValueError(f"need a positive integer, got {n}")
    largest = 1
    p = 2
    while p * p <= n:
        while n % p == 0:
            largest = p
            n //= p
        p += 1 if p == 2 else 2
    return max(largest, n) if n > 1 else largest
