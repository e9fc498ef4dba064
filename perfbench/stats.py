"""Order statistics, failure counting and input-digest comparison.

Pure functions over plain lists and dicts, so the self-test can pin their
arithmetic without running a workload.
"""

from __future__ import annotations

import statistics
from typing import Iterable, Mapping, Sequence

# Candidate tail levels, highest first.  A timing is reported as its median
# plus the highest of these levels that still has at least TAIL_BEYOND
# samples above it.
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_BEYOND = 10


def percentile(values: Sequence[float], level: float) -> float:
    """Linearly interpolated percentile (the `numpy.percentile` default)."""
    if not values:
        raise ValueError("percentile of no samples")
    xs = sorted(values)
    rank = level / 100.0 * (len(xs) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def tail_level(n: int, beyond: int = TAIL_BEYOND) -> float | None:
    """Highest level in TAIL_LEVELS with at least ``beyond`` of ``n`` samples
    above it, or None when even the lowest level has too few."""
    for level in TAIL_LEVELS:
        if round(n * (100.0 - level) / 100.0, 9) >= beyond:  # 100 - 99.9 is inexact
            return level
    return None


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def count_failures(ops: Iterable[Mapping]) -> tuple[int, int, int]:
    """(attempted, failed, wrong) over op records.

    Every op counts as attempted.  An op fails when it raised, exited with an
    error, or returned an answer its check rejected; the last kind is also
    counted as ``wrong``.
    """
    attempted = failed = wrong = 0
    for op in ops:
        attempted += 1
        if op["status"] != "ok":
            failed += 1
            if op["status"] == "wrong":
                wrong += 1
    return attempted, failed, wrong


def fail_ratio(attempted: int, failed: int) -> float:
    if attempted < 1:
        raise ValueError("fail ratio needs at least one attempted op")
    return failed / attempted


def digest_changes(base: Mapping[str, str], new: Mapping[str, str]) -> list[str]:
    """Instance names whose input digest differs between two runs, including
    instances present on one side only.  Empty when the inputs match."""
    return sorted(name for name in set(base) | set(new) if base.get(name) != new.get(name))


def compare_metric(base: Sequence[float], new: Sequence[float], better: str,
                   bound: float | None) -> str:
    """Verdict for one metric of one workload from two sets of run values.

    "regressed" when the new median is worse than the base median by more
    than ``bound`` (a share of the base median); "unresolved" when the base
    runs spread wider than the bound, unless every new run beats every base
    run; otherwise "within bound" (or "changed" when no bound is fixed).
    """
    b_med = statistics.median(base)
    n_med = statistics.median(new)
    if bound is None:
        return "changed" if n_med != b_med else "unchanged"
    worse = (n_med - b_med) / b_med if better == "lower" else (b_med - n_med) / b_med
    all_better = (max(new) < min(base)) if better == "lower" else (min(new) > max(base))
    if relative_spread(base) > bound and not all_better:
        return "unresolved"
    return "regressed" if worse > bound else "within bound"
