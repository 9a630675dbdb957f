"""Statistics shared by the workloads and the compare entry point.

- :func:`tail_percentile` is the reporting rule for timings: the highest
  percentile of a fixed ladder that still has at least ten samples beyond
  it, never above the workload's own cap (so a faster program, which
  collects more samples, does not silently switch to a higher percentile).
- :func:`verdict` is the rule for calling a change better, worse,
  unchanged or unresolved from two sets of runs: the change must win nine
  tenths of the pairs and move the median by more than the parent's own
  quartile spread to count as better; it is worse when its median is worse
  than the parent's by more than the metric's bound; when the runs spread
  wider than the bound it is unresolved unless every run of the change
  reads better than every run of the parent.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence, Tuple

#: Percentiles a tail may be reported at, highest first.
TAIL_LADDER = (99.0, 95.0, 90.0, 50.0)
#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile with linear interpolation (NumPy's default)."""
    if not values:
        raise ValueError("percentile of no samples")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the ``q``-th percentile."""
    return n - math.ceil(n * q / 100.0)


def tail_percentile(n: int, cap: float = TAIL_LADDER[0]) -> float:
    """The highest ladder percentile <= ``cap`` with ten samples beyond it.

    Falls back to the median when even that has fewer than ten samples
    beyond it (fewer than 20 samples): the tail is then not resolvable and
    the record says so by naming percentile 50.
    """
    for q in TAIL_LADDER:
        if q <= cap and samples_beyond(n, q) >= MIN_BEYOND:
            return q
    return 50.0


def summarize(values: Sequence[float], cap: float = TAIL_LADDER[0]) -> Dict[str, float]:
    """Median, tail (by :func:`tail_percentile`), its percentile and count."""
    q = tail_percentile(len(values), cap)
    return {
        "n": len(values),
        "p50": percentile(values, 50.0),
        "tail_q": q,
        "tail": percentile(values, q),
        "max": max(values),
    }


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf


def pair_wins(base: Sequence[float], new: Sequence[float], better: str) -> Tuple[int, int, int]:
    """(wins, losses, ties) of ``new`` over ``base`` across paired runs."""
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower', not {better!r}")
    wins = losses = ties = 0
    for b, n in zip(base, new):
        if n == b:
            ties += 1
        elif (n > b) == (better == "higher"):
            wins += 1
        else:
            losses += 1
    return wins, losses, ties


def verdict(base: Sequence[float], new: Sequence[float], better: str, bound: float) -> str:
    """Classify ``new`` against ``base``: better/worse/unchanged/unresolved.

    Runs are paired in order. ``bound`` is the share of the base median by
    which the metric may worsen before it counts as a regression.
    """
    if not base or not new:
        raise ValueError("verdict needs runs on both sides")
    sign = 1.0 if better == "higher" else -1.0
    b1, bmed, b3 = quartiles(base)
    _, nmed, _ = quartiles(new)
    wins, _, _ = pair_wins(base, new, better)
    pairs = min(len(base), len(new))
    gain = sign * (nmed - bmed)
    if wins >= 0.9 * pairs and gain > (b3 - b1):
        return "better"
    if -gain > bound * abs(bmed):
        return "worse"
    all_better = all(sign * (n - b) > 0 for n in new for b in base)
    if max(relative_spread(base), relative_spread(new)) > bound and not all_better:
        return "unresolved"
    return "unchanged"
