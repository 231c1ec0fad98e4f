import math

import pytest

from perfbench.stats import quantile, summarize, tail_quantile


def test_quantile_interpolates_linearly():
    values = [4.0, 1.0, 3.0, 2.0]
    assert quantile(values, 0.0) == 1.0
    assert quantile(values, 1.0) == 4.0
    assert quantile(values, 0.5) == pytest.approx(2.5)
    assert quantile(values, 0.25) == pytest.approx(1.75)


def test_quantile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        quantile([], 0.5)
    with pytest.raises(ValueError):
        quantile([1.0], 1.5)


@pytest.mark.parametrize(
    "n, tail",
    [(1, None), (99, None), (100, "p90"), (999, "p90"), (1000, "p99"),
     (9999, "p99"), (10000, "p99.9")],
)
def test_tail_needs_ten_samples_beyond_it(n, tail):
    summary = summarize([float(i) for i in range(n)])
    assert summary["n"] == n
    assert summary["tail"] == tail
    q = tail_quantile(n)
    if q is not None:
        assert n * (1.0 - q) >= 10 - 1e-9
        assert summary["tail_value"] == pytest.approx(
            quantile(range(n), q)
        )


def test_summary_of_nothing_has_count_zero():
    assert summarize([]) == {
        "p50": None, "tail": None, "tail_value": None, "n": 0,
    }


def test_failed_requests_sit_above_every_latency():
    summary = summarize([0.001] * 150 + [math.inf] * 50)
    assert summary["p50"] == 0.001
    assert summary["tail"] == "p90"
    assert summary["tail_value"] == math.inf
