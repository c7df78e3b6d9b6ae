"""Summary statistics and span arithmetic for the benchmark (stdlib only)."""

from __future__ import annotations

import math
import re
import statistics

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# Candidate tail percentiles, highest first.
TAILS = (99.9, 99.0, 95.0, 90.0, 75.0)

# A tail percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10


def valid_metric_name(name: str) -> bool:
    return METRIC_NAME.fullmatch(name) is not None


def tail_percentile(count: int) -> float | None:
    """Highest candidate percentile with at least TAIL_SAMPLES samples above it."""
    for p in TAILS:
        if round(count * (100.0 - p) / 100.0, 6) >= TAIL_SAMPLES:
            return p
    return None


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile (the 'inclusive' definition)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def summarize(values) -> dict:
    """Median, the supported tail percentile (if any) and the sample count."""
    values = list(values)
    tail = tail_percentile(len(values))
    doc = {"median": statistics.median(values), "count": len(values)}
    if tail is not None:
        doc[f"p{tail:g}"] = percentile(values, tail)
    return doc


def self_times(spans) -> list[int]:
    """Self time of each span: its duration minus that of its direct children.

    `spans` is a sequence of (name, start, end, parent_index) with parent -1
    at top level.  Spans recorded from one call stack nest, so direct
    children never overlap and subtracting their durations removes exactly
    the part of the interval they cover.
    """
    result = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            result[parent] -= end - start
    return result


def has_ancestor(spans, index: int, names) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][3]
    return False


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: call count, inclusive and self time in ns."""
    own = self_times(spans)
    totals: dict[str, dict[str, float]] = {}
    for (name, start, end, _), self_ns in zip(spans, own):
        entry = totals.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
        entry["calls"] += 1
        entry["total_ns"] += end - start
        entry["self_ns"] += self_ns
    return totals


def time_under(spans, names, root: str) -> tuple[int, int]:
    """Time in outermost `names` spans nested under `root` spans, and `root`'s total."""
    names = frozenset(names)
    root_total = sum(end - start for name, start, end, _ in spans if name == root)
    inside = sum(
        end - start
        for i, (name, start, end, _) in enumerate(spans)
        if name in names and has_ancestor(spans, i, {root}) and not has_ancestor(spans, i, names)
    )
    return inside, root_total
