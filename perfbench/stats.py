"""Sample statistics for the benchmark: nearest-rank percentiles with the
ten-beyond rule, medians, and digests of canonical JSON."""

from __future__ import annotations

import hashlib
import json
import statistics

BEYOND = 10  # samples that must lie above a reported percentile


def percentile(samples, p: int):
    """Nearest-rank p-th percentile of `samples` (p an integer 1..100).

    Returns (value, beyond), where beyond counts the samples ranked above it.
    Integer arithmetic keeps the rank exact: 0.9 * 100 is not 90 in floats.
    """
    xs = sorted(samples)
    if not xs:
        raise ValueError("no samples")
    rank = max(1, -(-p * len(xs) // 100))
    return xs[rank - 1], len(xs) - rank


def median(values):
    return statistics.median(values)


def relative_iqr(values):
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
