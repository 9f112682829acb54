"""Unit tests for repro.util.numerics."""

import numpy as np
import pytest

from repro.util.numerics import Ewma, pairwise, quantile


class TestPairwise:
    def test_basic(self):
        assert list(pairwise([1, 2, 3])) == [(1, 2), (2, 3)]

    def test_short(self):
        assert list(pairwise([1])) == []
        assert list(pairwise([])) == []


class TestEwma:
    def test_first_sample_seeds(self):
        filt = Ewma(0.5)
        assert filt.update(10.0) == 10.0

    def test_smooths(self):
        filt = Ewma(0.5)
        filt.update(10.0)
        assert filt.update(20.0) == pytest.approx(15.0)

    def test_alpha_one_passthrough(self):
        filt = Ewma(1.0)
        filt.update(1.0)
        assert filt.update(100.0) == 100.0

    def test_converges_to_constant(self):
        filt = Ewma(0.3)
        for _ in range(200):
            filt.update(7.0)
        assert filt.value == pytest.approx(7.0)

    def test_reset(self):
        filt = Ewma(0.5)
        filt.update(10.0)
        filt.reset()
        assert filt.value is None
        assert filt.update(2.0) == 2.0

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            Ewma(0.0)
        with pytest.raises(ValueError):
            Ewma(1.5)


class TestQuantile:
    def test_median_odd(self):
        assert quantile([1.0, 2.0, 3.0], 0.5) == 2.0

    def test_median_even_interpolates(self):
        assert quantile([1.0, 2.0, 3.0, 4.0], 0.5) == pytest.approx(2.5)

    def test_extremes(self):
        values = [3.0, 5.0, 9.0]
        assert quantile(values, 0.0) == 3.0
        assert quantile(values, 1.0) == 9.0

    def test_single_value(self):
        assert quantile([7.0], 0.25) == 7.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            quantile([], 0.5)
        with pytest.raises(ValueError):
            quantile(np.array([]), 0.5)

    def test_sorted_array_matches_list(self):
        values = [0.1, 0.7, 0.7, 2.5, 9.0]
        for q in (0.0, 0.1, 0.3, 0.5, 0.9, 1.0):
            result = quantile(np.array(values), q)
            assert type(result) is float
            assert result == quantile(values, q)

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            quantile([1.0], 1.5)

