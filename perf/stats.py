"""Estimators shared by the runner, the calibrator and ``compare.py``.

The arithmetic only; how the runner applies it to a shared, drifting
host is described in README.md ("Estimator").
"""

from __future__ import annotations

import math
import statistics

#: A percentile is only reported when at least this many samples lie
#: beyond it (choosing-metrics guide, section 1).
MIN_SAMPLES_BEYOND = 10


class TooFewSamples(ValueError):
    """The sample cannot support the requested percentile."""


def percentile(samples, q: float, min_beyond: int = MIN_SAMPLES_BEYOND) -> float:
    """Nearest-rank percentile; refuses one the sample cannot support."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    beyond = len(ordered) - rank
    if q > 0.5 and beyond < min_beyond:
        raise TooFewSamples(
            f"p{q * 100:g} of {len(ordered)} samples has {beyond} beyond it, "
            f"need {min_beyond}"
        )
    if not ordered:
        raise TooFewSamples("no samples")
    return ordered[rank - 1]


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(values, better: str) -> dict:
    """Median, best, quartiles, extremes and K of per-pass readings."""
    values = list(values)
    q1, median, q3 = quartiles(values)
    return {
        "median": median,
        "best": max(values) if better == "higher" else min(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "k": len(values),
    }


def spread(summary: dict) -> float:
    """Inter-quartile distance as a share of the median; 0 for a
    metric that is one reading (a count, a peak) rather than K passes."""
    if "q1" not in summary or not summary["median"]:
        return 0.0
    return abs(summary["q3"] - summary["q1"]) / abs(summary["median"])


def worsening(base: float, new: float, better: str) -> float:
    """Share of ``base`` by which ``new`` is worse (negative: better)."""
    if base == 0:
        return 0.0 if new == 0 else math.inf
    change = (new - base) / abs(base)
    return -change if better == "higher" else change


def verdict(base: dict, new: dict, better: str, bound: float) -> str:
    """``ok`` / ``worse`` / ``unresolved`` for one workload x metric.

    ``unresolved`` means either side's own spread is wider than the
    bound, so a difference of that size cannot be told from noise —
    unless every pass of ``new`` reads better than every pass of
    ``base`` (choosing-metrics guide, section 6.5).
    """
    worse_by = worsening(base["value"], new["value"], better)
    if max(spread(base), spread(new)) > bound:
        if better == "higher":
            clearly_better = new.get("min", new["value"]) > base.get("max", base["value"])
        else:
            clearly_better = new.get("max", new["value"]) < base.get("min", base["value"])
        return "ok" if clearly_better else "unresolved"
    return "worse" if worse_by > bound else "ok"


def largest_pairwise_difference(values) -> float:
    """Largest relative difference between any two of ``values``."""
    values = list(values)
    low, high = min(values), max(values)
    return (high - low) / abs(low) if low else 0.0
