"""The quantile, spread and rate-ladder arithmetic."""

import math

import numpy as np
import pytest

from stats import (
    RungResult,
    median,
    percentile,
    rung_passes,
    split_windows,
    sustained_rate,
    windowed_percentile,
)


@pytest.mark.parametrize("q", [0, 10, 50, 90, 99, 100])
def test_percentile_matches_numpy(q):
    values = list(np.random.default_rng(3).normal(size=57))
    assert percentile(values, q) == pytest.approx(np.percentile(values, q))


def test_percentile_keeps_failures_infinite():
    values = [1.0] * 5 + [math.inf] * 5
    assert percentile(values, 95) == math.inf
    assert percentile(values, 10) == 1.0


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_median_of_empty_sample_raises():
    with pytest.raises(ValueError):
        median([])


def test_split_windows_buckets_by_stamp():
    stamps = [0.0, 0.1, 0.26, 0.3, 0.74, 0.76]
    values = [1, 2, 3, 4, 5, 6]
    assert split_windows(stamps, values, 0.25) == [[1, 2], [3, 4], [5], [6]]
    with pytest.raises(ValueError):
        split_windows([0.0], [1.0, 2.0], 0.25)


def test_windowed_percentile_is_a_median_of_window_percentiles():
    slow = [10.0] * 100          # one window inside a slow spell
    fast = [1.0] * 100
    windows = [fast, slow, fast]
    assert windowed_percentile(windows, 90) == 1.0
    # Windows too small for ten samples beyond the p90 are skipped.
    assert windowed_percentile([[1.0] * 50], 90) is None
    assert windowed_percentile([[1.0] * 50, [2.0] * 100], 90) == 2.0


def _rung(rate, p90=1.0, late=0.1, failed=0, sent=100):
    return RungResult(rate, sent, failed, p90, late)


def test_rung_passes_needs_every_condition():
    assert rung_passes(_rung(100), p90_limit_ms=5.0)
    assert not rung_passes(_rung(100, p90=5.1), p90_limit_ms=5.0)
    assert not rung_passes(_rung(100, late=6.0), p90_limit_ms=5.0)
    assert not rung_passes(_rung(100, failed=1), p90_limit_ms=5.0)
    assert not rung_passes(_rung(100, sent=0), p90_limit_ms=5.0)


def test_sustained_rate_is_the_top_of_the_passing_prefix():
    rungs = [_rung(250), _rung(1000, p90=9.0), _rung(500), _rung(2000)]
    # 2000 passes, but above a failing rung it does not count.
    assert sustained_rate(rungs, p90_limit_ms=5.0) == 500
    assert sustained_rate([_rung(250, failed=2)], p90_limit_ms=5.0) == 0.0
    assert sustained_rate([_rung(250), _rung(500)], p90_limit_ms=5.0) == 500
