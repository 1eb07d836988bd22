"""Order statistics, latency windows and the rate-ladder decision.

Pure functions with no dependency on the program, so the arithmetic the
benchmark reports can be tested on its own (``tests/test_stats.py``).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

__all__ = [
    "RungResult",
    "median",
    "percentile",
    "rung_passes",
    "split_windows",
    "sustained_rate",
    "windowed_percentile",
]


def median(values: Sequence[float]) -> float:
    """The median; raises ``ValueError`` on an empty sample."""
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation.

    Matches ``numpy.percentile``'s default method, so a reader can
    check a figure with numpy.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    lower = math.floor(position)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = position - lower
    if fraction == 0.0 or ordered[upper] == ordered[lower]:
        return ordered[lower]  # also keeps inf (a failed request) exact
    return ordered[lower] + (ordered[upper] - ordered[lower]) * fraction


def windowed_percentile(
    samples: Sequence[Sequence[float]], q: float, *, min_beyond: int = 10
) -> Optional[float]:
    """Median over windows of each window's ``q``-th percentile.

    A slow spell of the host lasting a second or two spoils the windows
    it falls in, not the figure: the median of per-window percentiles
    ignores a minority of spoiled windows.  Windows too small to hold
    ``min_beyond`` samples beyond the percentile are skipped; ``None``
    when no window qualifies.
    """
    per_window = [
        percentile(window, q)
        for window in samples
        if window and _beyond(len(window), q) >= min_beyond
    ]
    if not per_window:
        return None
    return median(per_window)


def _beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond their ``q``-th percentile."""
    return n - math.ceil(round(n * q / 100.0, 9))


@dataclass(frozen=True)
class RungResult:
    """What one rung of the open-loop rate ladder measured.

    Both figures are medians over short windows of the rung, so a slow
    spell of the host in a minority of windows does not decide it.
    """

    rate_rps: float
    sent: int
    failed: int
    #: Median over windows of each window's p90 latency (ms).
    p90_ms: float
    #: Median over windows of how late the generator sent (ms).  When
    #: the offered rate exceeds what the system serves, the backlog and
    #: with it the lateness grow through the rung.
    lateness_ms: float


def rung_passes(rung: RungResult, *, p90_limit_ms: float) -> bool:
    """A rung is sustained when nothing failed, the p90 meets the limit
    and the generator kept to its schedule (no growing backlog)."""
    return (
        rung.sent > 0
        and rung.failed == 0
        and rung.p90_ms <= p90_limit_ms
        and rung.lateness_ms <= p90_limit_ms
    )


def sustained_rate(
    rungs: Sequence[RungResult], *, p90_limit_ms: float
) -> float:
    """Highest rate of a contiguous passing prefix of the ladder.

    Rungs are judged in increasing rate order and the climb stops at
    the first failing rung, so a lucky pass above a failure does not
    count.  Returns 0.0 when even the lowest rung fails.
    """
    best = 0.0
    for rung in sorted(rungs, key=lambda r: r.rate_rps):
        if not rung_passes(rung, p90_limit_ms=p90_limit_ms):
            break
        best = rung.rate_rps
    return best


def split_windows(
    stamps: Sequence[float], values: Sequence[float], width_s: float
) -> List[List[float]]:
    """Bucket ``values`` by their ``stamps`` into consecutive windows."""
    if width_s <= 0:
        raise ValueError(f"width_s must be > 0, got {width_s}")
    if len(stamps) != len(values):
        raise ValueError("stamps and values differ in length")
    if not stamps:
        return []
    start = min(stamps)
    buckets: Dict[int, List[float]] = {}
    for stamp, value in zip(stamps, values):
        buckets.setdefault(int((stamp - start) // width_s), []).append(value)
    return [buckets[key] for key in sorted(buckets)]
