"""Tests for analysis statistics helpers."""

import pytest

from repro.analysis.stats import (
    cdf_at,
    empirical_cdf,
    success_rate,
    summarize,
    wilson_interval,
)


class TestEmpiricalCdf:
    def test_sorted_output(self):
        xs, ps = empirical_cdf([3.0, 1.0, 2.0])
        assert xs == [1.0, 2.0, 3.0]
        assert ps == pytest.approx([1 / 3, 2 / 3, 1.0])

    def test_last_probability_is_one(self):
        _, ps = empirical_cdf([5.0, 1.0, 9.0, 2.0])
        assert ps[-1] == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_cdf([])

    def test_cdf_at(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert cdf_at(values, 2.5) == 0.5
        assert cdf_at(values, 0.0) == 0.0
        assert cdf_at(values, 10.0) == 1.0


class TestSummarize:
    def test_empty(self):
        assert summarize([]) == {"count": 0}

    def test_fields(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0, 5.0])
        assert summary["count"] == 5
        assert summary["mean"] == 3.0
        assert summary["p50"] == 3.0
        assert summary["min"] == 1.0
        assert summary["max"] == 5.0

    def test_percentiles_ordered(self):
        summary = summarize(list(range(100)))
        assert summary["p10"] <= summary["p50"] <= summary["p90"]


class TestVectorizedInputs:
    """The CDF/summary helpers accept numpy arrays and stay exact."""

    def test_empirical_cdf_accepts_arrays(self):
        import numpy as np

        xs, ps = empirical_cdf(np.array([3.0, 1.0, 2.0]))
        assert xs == [1.0, 2.0, 3.0]
        assert ps == [1 / 3, 2 / 3, 1.0]
        assert isinstance(xs, list) and isinstance(ps, list)

    def test_cdf_at_accepts_arrays(self):
        import numpy as np

        assert cdf_at(np.arange(10.0), 4.5) == 0.5

    def test_summarize_accepts_arrays(self):
        import numpy as np

        assert summarize(np.array([1.0, 2.0, 3.0])) == summarize([1.0, 2.0, 3.0])

    def test_quantiles_match_list_reference(self):
        import numpy as np

        from repro.util.numerics import quantile

        rng = np.random.default_rng(3)
        values = rng.normal(size=997)
        summary = summarize(values)
        ordered = sorted(values.tolist())
        for key, q in (("p10", 0.10), ("p50", 0.50), ("p90", 0.90)):
            assert summary[key] == quantile(ordered, q)

    def test_population_scale_sample(self):
        import numpy as np

        rng = np.random.default_rng(7)
        values = rng.exponential(size=200_000)
        xs, ps = empirical_cdf(values)
        assert len(xs) == 200_000
        assert ps[-1] == 1.0
        assert 0.0 < cdf_at(values, 1.0) < 1.0
        summary = summarize(values)
        assert summary["count"] == 200_000
        assert summary["p10"] <= summary["p50"] <= summary["p90"]

    def test_rejects_multidimensional(self):
        import numpy as np

        with pytest.raises(ValueError):
            summarize(np.zeros((3, 3)))


class TestProportions:
    def test_success_rate(self):
        assert success_rate(3, 4) == 0.75

    def test_success_rate_validation(self):
        with pytest.raises(ValueError):
            success_rate(1, 0)
        with pytest.raises(ValueError):
            success_rate(5, 4)

    def test_wilson_contains_point(self):
        low, high = wilson_interval(8, 10)
        assert low <= 0.8 <= high

    def test_wilson_bounded(self):
        low, high = wilson_interval(10, 10)
        assert 0.0 <= low <= high <= 1.0

    def test_wilson_sane_at_zero(self):
        low, high = wilson_interval(0, 10)
        assert low == 0.0
        assert high > 0.0
