"""Unit tests for Rician small-scale fading."""

import numpy as np
import pytest

from repro.phy.fading import NoFading, RicianFading


class TestRician:
    def test_unit_mean_power(self):
        """Fading is normalized: E[linear power] = 1 (0 dB)."""
        fading = RicianFading(10.0, np.random.default_rng(1))
        draws = fading.sample_db_array(40000)
        mean_power = np.mean(10.0 ** (draws / 10.0))
        assert mean_power == pytest.approx(1.0, rel=0.03)

    def test_higher_k_less_variance(self):
        strong_los = RicianFading(20.0, np.random.default_rng(2))
        weak_los = RicianFading(0.0, np.random.default_rng(2))
        assert np.std(strong_los.sample_db_array(5000)) < np.std(
            weak_los.sample_db_array(5000)
        )

    def test_high_k_nearly_deterministic(self):
        fading = RicianFading(40.0, np.random.default_rng(3))
        draws = fading.sample_db_array(2000)
        assert np.max(np.abs(draws)) < 1.0

    def test_scalar_matches_distribution(self):
        fading = RicianFading(10.0, np.random.default_rng(4))
        scalars = [fading.sample_db() for _ in range(5000)]
        assert np.mean([10.0 ** (s / 10.0) for s in scalars]) == pytest.approx(
            1.0, rel=0.05
        )

    def test_deterministic_given_rng(self):
        a = RicianFading(10.0, np.random.default_rng(7))
        b = RicianFading(10.0, np.random.default_rng(7))
        assert a.sample_db() == b.sample_db()

    def test_deep_fades_rare_with_k10(self):
        """With K = 10 dB, fades below -10 dB are a small minority."""
        fading = RicianFading(10.0, np.random.default_rng(5))
        draws = fading.sample_db_array(10000)
        assert np.mean(draws < -10.0) < 0.02


class TestNoFading:
    def test_always_zero(self):
        fading = NoFading()
        assert fading.sample_db() == 0.0
        assert np.all(fading.sample_db_array(10) == 0.0)
