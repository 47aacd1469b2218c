"""Median, quartile and tail-percentile reporting."""

import statistics

import pytest

from harness.stats import describe, percentile, quartiles, spread, summarize, tail_percentile


def test_quartiles_match_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
    q1, median, q3 = quartiles(values)
    assert (q1, median, q3) == tuple(statistics.quantiles(values, n=4))
    assert spread(values) == pytest.approx((q3 - q1) / median)


def test_single_sample_is_its_own_summary():
    summary = summarize([2.0])
    assert summary["n"] == 1 and summary["median"] == summary["q1"] == summary["q3"] == 2.0
    assert "tail" not in summary


def test_tail_needs_ten_samples_beyond_it():
    assert tail_percentile(19) is None
    assert tail_percentile(20) == 50.0
    assert tail_percentile(40) == 75.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(10000) == 99.9


def test_percentile_interpolates():
    values = list(range(101))
    assert percentile(values, 90) == pytest.approx(90.0)
    assert percentile([1.0, 3.0], 50) == pytest.approx(2.0)


def test_summary_reports_count_and_tail():
    values = [float(v) for v in range(1, 101)]
    summary = summarize(values)
    assert summary["n"] == 100
    assert summary["median"] == 50.5
    assert summary["tail_pct"] == 90.0
    assert summary["tail"] == pytest.approx(percentile(values, 90))
    text = describe(summary)
    assert "n=100" in text and "p90" in text
