"""Percentile, quartile and A/A-gap helpers."""

import statistics

import pytest

from stats import iqr_share, percentile, quartiles, worsening


def test_percentile_interpolates_between_ranks():
    values = [10.0, 20.0, 30.0, 40.0, 50.0]
    assert percentile(values, 0.0) == 10.0
    assert percentile(values, 50.0) == 30.0
    assert percentile(values, 100.0) == 50.0
    assert percentile(values, 25.0) == 20.0
    assert percentile(values, 90.0) == pytest.approx(46.0)


def test_percentile_ignores_input_order_and_handles_one_sample():
    assert percentile([5.0, 1.0, 3.0], 50.0) == 3.0
    assert percentile([7.0], 95.0) == 7.0


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50.0)
    with pytest.raises(ValueError):
        percentile([1.0], 101.0)


def test_quartiles_are_the_gate_s_rule():
    values = [float(v) for v in (12, 15, 11, 19, 14, 13, 18, 16, 17, 10)]
    assert list(quartiles(values)) == statistics.quantiles(values, n=4)
    q1, median, q3 = quartiles(values)
    assert iqr_share(values) == pytest.approx((q3 - q1) / median)


def test_iqr_share_of_identical_runs_is_zero():
    assert iqr_share([4.0] * 10) == 0.0


def test_worsening_follows_the_metric_direction():
    assert worsening(10.0, 9.0, "higher") == pytest.approx(0.1)
    assert worsening(10.0, 11.0, "higher") == pytest.approx(-0.1)
    assert worsening(10.0, 11.0, "lower") == pytest.approx(0.1)
    assert worsening(10.0, 9.0, "lower") == pytest.approx(-0.1)
    with pytest.raises(ValueError):
        worsening(1.0, 1.0, "sideways")
