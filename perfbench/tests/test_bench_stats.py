"""The median/percentile rule of the benchmark's reports."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from stats import percentile, summarize, tail_percentile  # noqa: E402


def test_below_forty_samples_reports_the_median_alone():
    assert summarize([3.0, 1.0, 2.0]) == {"n": 3, "median": 2.0}
    assert tail_percentile(39) is None
    assert set(summarize([float(i) for i in range(39)])) == {"n", "median"}


@pytest.mark.parametrize("n, p", [(40, 75.0), (99, 75.0), (100, 90.0),
                                  (199, 90.0), (200, 95.0), (1000, 99.0),
                                  (10_000, 99.9)])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, p):
    assert tail_percentile(n) == p
    assert n * (1000 - round(10 * p)) >= 10_000


def test_summary_of_forty_samples_carries_p75():
    samples = [float(i) for i in range(1, 41)]
    assert summarize(samples) == {"n": 40, "median": 20.5, "p75": 30.0}


def test_percentile_is_nearest_rank():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(samples, 50) == 3.0
    assert percentile(samples, 75) == 4.0
    assert percentile(samples, 100) == 5.0
    assert percentile(samples, 0) == 1.0
    with pytest.raises(ValueError):
        percentile([], 50)
