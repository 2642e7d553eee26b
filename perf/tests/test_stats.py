import statistics

import pytest

from perf import stats


@pytest.mark.parametrize(
    "n, expected",
    [
        (1, 50.0),
        (19, 50.0),  # 9.5 samples beyond the median: not even p50 has ten, p50 is the floor
        (20, 50.0),
        (40, 75.0),
        (100, 90.0),
        (240, 95.0),  # 12 samples beyond p95, 2.4 beyond p99
        (1000, 99.0),
        (10_000, 99.9),
    ],
)
def test_highest_percentile_keeps_ten_samples_beyond_it(n, expected):
    assert stats.highest_supported_percentile(n) == expected


def test_quartiles_match_the_drivers_definition():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0, 3.5, 8.0, 7.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.quartiles(values) == (q1, q2, q3)
    assert stats.spread(values) == pytest.approx((q3 - q1) / q2)


def test_summary_reports_count_median_and_supported_tail():
    values = [float(v) for v in range(1, 241)]
    summary = stats.summarize(values)
    assert summary["n"] == 240
    assert summary["p50"] == 120.5
    assert summary["hi_pct"] == 95.0
    assert summary["hi"] == pytest.approx(stats.percentile(values, 95.0))


def test_percentile_interpolates():
    assert stats.percentile([10.0, 20.0], 50.0) == 15.0
    assert stats.percentile([5.0], 99.0) == 5.0
