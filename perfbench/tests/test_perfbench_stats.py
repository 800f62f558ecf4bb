"""The tail-percentile rule, the reported sample count and the host factor."""

import pytest

from perfbench.calibration import REFERENCE_S, host_factor
from perfbench.stats import describe, nearest_rank, quartiles, tail_percentile


def test_nearest_rank_counts_the_samples_beyond():
    values = list(range(1, 101))
    assert nearest_rank(values, 90) == (90, 10)
    assert nearest_rank(values, 50) == (50, 50)
    assert nearest_rank(values, 100) == (100, 0)


@pytest.mark.parametrize(
    ("count", "expected"),
    [
        (19, None),  # the median has only 9 samples beyond it
        (20, 50.0),
        (39, 50.0),  # p75 has 9 beyond
        (40, 75.0),
        (100, 90.0),  # p95 has only 5 beyond
        (199, 90.0),
        (200, 95.0),
        (1000, 99.0),
    ],
)
def test_highest_percentile_with_ten_samples_beyond(count, expected):
    tail = tail_percentile([float(i) for i in range(count)])
    if expected is None:
        assert tail is None
    else:
        percentile, value = tail
        assert percentile == expected
        _, beyond = nearest_rank(range(count), percentile)
        assert beyond >= 10


def test_describe_reports_sample_count_and_tail():
    line = describe([float(i) for i in range(200)], "ms")
    assert "n=200" in line
    assert "p95" in line
    assert "p99" not in line
    short = describe([1.0, 2.0, 3.0], "s")
    assert "n=3" in short and "p" not in short.split("(")[1].split(";")[0].replace("q", "")


def test_quartiles_match_statistics_quantiles():
    assert quartiles([1.0, 2.0, 3.0, 4.0]) == (1.25, 2.5, 3.75)
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_host_factor_scales_to_the_reference_speed():
    # A host twice as fast as the reference has its times doubled.
    assert host_factor(REFERENCE_S / 2) == pytest.approx(2.0)
    # The kernel times around a pass are averaged.
    assert host_factor(REFERENCE_S / 2, REFERENCE_S * 1.5) == pytest.approx(1.0)
