"""Summary statistics used by the benchmark's reports."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

# Candidate tail percentiles in tenths of a percent, lowest first, so the
# count beyond each is exact integer arithmetic.
PERMILLE = (750, 900, 950, 990, 999)
MIN_TAIL_SAMPLES = 10     # samples that must lie beyond a reported percentile
MIN_SAMPLES_FOR_TAIL = 40


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n: int):
    """Highest candidate percentile with at least ten samples beyond it, or
    None below forty samples, where no percentile would be a tail."""
    if n < MIN_SAMPLES_FOR_TAIL:
        return None
    fitting = [pm for pm in PERMILLE
               if n * (1000 - pm) >= 1000 * MIN_TAIL_SAMPLES]
    return fitting[-1] / 10.0 if fitting else None


def summarize(samples: Sequence[float]) -> dict:
    """Median and sample count, plus the tail percentile when one exists."""
    out = {"n": len(samples), "median": statistics.median(samples)}
    p = tail_percentile(len(samples))
    if p is not None:
        out[f"p{p:g}"] = percentile(samples, p)
    return out
