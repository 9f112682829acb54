"""Unit tests for the correlated shadowing process."""

import numpy as np
import pytest

from repro.phy.shadowing import ShadowingProcess


def make(sigma=3.0, decorr=1.5, seed=1):
    return ShadowingProcess(sigma, decorr, np.random.default_rng(seed))


class TestBasics:
    def test_zero_sigma_is_zero(self):
        process = ShadowingProcess(0.0, 1.0, np.random.default_rng(1))
        assert process.sample_db(0.0) == 0.0
        assert process.sample_db(100.0) == 0.0

    def test_deterministic_given_rng(self):
        a = make(seed=5)
        b = make(seed=5)
        for d in (0.0, 0.5, 1.0, 3.0):
            assert a.sample_db(d) == b.sample_db(d)

    def test_rejects_backwards_distance(self):
        process = make()
        process.sample_db(5.0)
        with pytest.raises(ValueError):
            process.sample_db(4.0)

    def test_zero_step_keeps_value(self):
        process = make()
        first = process.sample_db(2.0)
        second = process.sample_db(2.0)
        assert second == pytest.approx(first)

    def test_reset_forgets(self):
        process = make()
        process.sample_db(3.0)
        process.reset()
        # After reset a sample at an 'earlier' distance is legal again.
        process.sample_db(0.0)

    def test_rejects_bad_params(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError):
            ShadowingProcess(-1.0, 1.0, rng)
        with pytest.raises(ValueError):
            ShadowingProcess(1.0, 0.0, rng)


class TestStatistics:
    def test_marginal_std_matches_sigma(self):
        """Widely-spaced samples are nearly i.i.d. N(0, sigma^2)."""
        process = make(sigma=3.0, decorr=1.0, seed=7)
        samples = [process.sample_db(20.0 * k) for k in range(4000)]
        assert np.std(samples) == pytest.approx(3.0, rel=0.1)
        assert np.mean(samples) == pytest.approx(0.0, abs=0.2)

    def test_short_steps_highly_correlated(self):
        process = make(sigma=3.0, decorr=10.0, seed=3)
        previous = process.sample_db(0.0)
        max_step = 0.0
        for k in range(1, 200):
            current = process.sample_db(0.01 * k)
            max_step = max(max_step, abs(current - previous))
            previous = current
        # With decorr 10 m and 1 cm steps the innovation is tiny.
        assert max_step < 0.5

    def test_correlation_decays_with_distance(self):
        """Lag-1 correlation at small spacing beats large spacing."""

        def lag1_corr(spacing, seed):
            process = make(sigma=3.0, decorr=1.5, seed=seed)
            samples = [process.sample_db(spacing * k) for k in range(3000)]
            x = np.array(samples)
            return np.corrcoef(x[:-1], x[1:])[0, 1]

        assert lag1_corr(0.2, 11) > lag1_corr(5.0, 11) + 0.3

    def test_theoretical_lag_correlation(self):
        """rho(d) ~= exp(-d / decorr)."""
        spacing, decorr = 1.0, 2.0
        process = ShadowingProcess(3.0, decorr, np.random.default_rng(9))
        samples = [process.sample_db(spacing * k) for k in range(6000)]
        x = np.array(samples)
        rho = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert rho == pytest.approx(np.exp(-spacing / decorr), abs=0.07)


class TestOneDwellDraw:
    """A one-dwell sample draws a scalar normal; bursts draw arrays."""

    def test_scalar_normal_matches_one_element_array(self):
        # The scalar draw is only byte-safe if numpy yields the same
        # value and leaves the same stream state as ``standard_normal(1)``.
        scalar = np.random.default_rng(2024)
        array = np.random.default_rng(2024)
        draws = 200_000
        mismatches = sum(
            scalar.standard_normal() != array.standard_normal(1)[0]
            for _ in range(draws)
        )
        assert mismatches == 0
        assert scalar.bit_generator.state == array.bit_generator.state

    @pytest.mark.parametrize("n", [1, 2, 16])
    def test_repeat_matches_scalar_loop(self, n):
        batch = make(seed=9)
        loop = make(seed=9)
        for distance in (0.0, 0.4, 0.4, 2.5, 7.0):
            value = batch.sample_repeat_db(distance, n)
            assert [loop.sample_db(distance) for _ in range(n)] == [value] * n
        assert batch._rng.bit_generator.state == loop._rng.bit_generator.state
