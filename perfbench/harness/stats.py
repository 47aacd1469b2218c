"""Summaries of repeated measurements: median, quartiles, tail, count.

Quartiles come from :func:`statistics.quantiles` with ``n=4`` (its
default, exclusive method), the same computation used to judge the
benchmark's run-to-run spread.  A tail percentile is reported only when
at least ten samples lie beyond it, so a p99 is never claimed from a
handful of runs.
"""

from __future__ import annotations

import statistics
from typing import Dict, Optional, Sequence

TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND_TAIL = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolation percentile (``pct`` in 0..100)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    position = (len(ordered) - 1) * pct / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_percentile(count: int) -> Optional[float]:
    """The highest candidate percentile with at least ten samples beyond it."""
    for pct in TAIL_CANDIDATES:
        if round(count * (100.0 - pct) / 100.0, 6) >= MIN_BEYOND_TAIL:
            return pct
    return None


def quartiles(values: Sequence[float]) -> tuple:
    """``(q1, median, q3)``; a single sample is its own quartiles."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def summarize(values: Sequence[float]) -> Dict[str, object]:
    """Median, quartiles, tail percentile (when supported) and the count."""
    if not values:
        raise ValueError("summary of no samples")
    q1, _, q3 = quartiles(values)
    summary: Dict[str, object] = {
        "n": len(values),
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
    }
    tail = tail_percentile(len(values))
    if tail is not None:
        summary["tail_pct"] = tail
        summary["tail"] = percentile(values, tail)
    return summary


def describe(summary: Dict[str, object], fmt: str = "{:.4g}") -> str:
    """One-line rendering of :func:`summarize` output."""
    text = (
        f"median {fmt.format(summary['median'])} "
        f"[q1 {fmt.format(summary['q1'])}, q3 {fmt.format(summary['q3'])}]"
    )
    if "tail" in summary:
        text += f" p{summary['tail_pct']:g} {fmt.format(summary['tail'])}"
    return text + f" (n={summary['n']})"
