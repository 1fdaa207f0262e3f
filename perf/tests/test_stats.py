import statistics

import pytest

from perf import stats


def test_percentile_is_nearest_rank():
    samples = list(range(1, 1001))
    assert stats.percentile(samples, 0.50) == 500
    assert stats.percentile(samples, 0.99) == 990


def test_percentile_refuses_fewer_than_ten_samples_beyond_it():
    # p99 of 999 samples has rank 990: nine samples beyond it.
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(range(999), 0.99)
    assert stats.percentile(range(1000), 0.99) == 989
    with pytest.raises(stats.TooFewSamples):
        stats.percentile([], 0.50)
    # The median is always supported by a non-empty sample.
    assert stats.percentile([3.0], 0.50) == 3.0


def test_summarize_reports_median_best_quartiles_and_k():
    rates = [10.0, 12.0, 11.0, 30.0, 9.0]
    summary = stats.summarize(rates, "higher")
    q1, q2, q3 = statistics.quantiles(rates, n=4)
    assert summary["median"] == q2 == 11.0
    assert (summary["q1"], summary["q3"]) == (q1, q3)
    assert (summary["min"], summary["max"]) == (9.0, 30.0)
    assert summary["best"] == 30.0 and summary["k"] == 5
    assert stats.summarize(rates, "lower")["best"] == 9.0
    assert stats.spread(summary) == pytest.approx((q3 - q1) / 11.0)
    one = stats.summarize([4.0], "lower")
    assert one["median"] == one["q1"] == one["q3"] == 4.0
    assert stats.spread({"value": 70.0}) == 0.0  # one reading, no spread of its own


def test_worsening_follows_the_direction_of_better():
    assert stats.worsening(100.0, 90.0, "higher") == pytest.approx(0.10)
    assert stats.worsening(100.0, 90.0, "lower") == pytest.approx(-0.10)
    assert stats.worsening(100.0, 110.0, "lower") == pytest.approx(0.10)


def _tight(value):
    return {"value": value, "median": value, "q1": value * 0.99, "q3": value * 1.01,
            "min": value * 0.98, "max": value * 1.02}


def test_verdict_ok_worse_and_unresolved():
    assert stats.verdict(_tight(100.0), _tight(95.0), "higher", 0.10) == "ok"
    assert stats.verdict(_tight(100.0), _tight(85.0), "higher", 0.10) == "worse"
    assert stats.verdict(_tight(100.0), _tight(115.0), "lower", 0.10) == "worse"
    noisy = {"value": 100.0, "median": 100.0, "q1": 80.0, "q3": 120.0, "min": 70.0, "max": 130.0}
    # Spread (0.4) wider than the bound: a 15% drop cannot be told from noise ...
    assert stats.verdict(noisy, _tight(85.0), "higher", 0.10) == "unresolved"
    # ... unless every pass of the new side beats every pass of the base.
    assert stats.verdict(noisy, _tight(200.0), "higher", 0.10) == "ok"
    assert stats.verdict(noisy, _tight(50.0), "lower", 0.10) == "ok"
    # A single reading (peak RSS, a count) has no spread of its own.
    assert stats.verdict({"value": 70.0}, {"value": 80.0}, "lower", 0.05) == "worse"


def test_largest_pairwise_difference():
    assert stats.largest_pairwise_difference([100.0, 104.0, 98.0]) == pytest.approx(6 / 98)
    assert stats.largest_pairwise_difference([5.0, 5.0]) == 0.0
