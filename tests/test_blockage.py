"""Unit tests for the blockage renewal process."""

import numpy as np
import pytest

from repro.phy.blockage import BlockageConfig, BlockageEvent, BlockageProcess


def make(rate=1.0, seed=1, **kwargs):
    config = BlockageConfig(rate_per_s=rate, **kwargs)
    return BlockageProcess(config, np.random.default_rng(seed))


class TestEvent:
    def test_duration(self):
        event = BlockageEvent(1.0, 1.5, 20.0)
        assert event.duration_s == 0.5


class TestConfig:
    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            BlockageConfig(rate_per_s=-1.0)

    def test_rejects_bad_duration(self):
        with pytest.raises(ValueError):
            BlockageConfig(mean_duration_s=0.0)


class TestProcess:
    def test_disabled_never_blocks(self):
        process = BlockageProcess(
            BlockageConfig(rate_per_s=0.0), np.random.default_rng(1)
        )
        for t in (0.0, 1.0, 100.0):
            assert process.attenuation_db(t) == 0.0

    def test_deterministic_given_rng(self):
        a = make(seed=3)
        b = make(seed=3)
        times = np.linspace(0, 20, 200)
        assert [a.attenuation_db(t) for t in times] == [
            b.attenuation_db(t) for t in times
        ]

    def test_rejects_time_reversal(self):
        process = make()
        process.attenuation_db(5.0)
        with pytest.raises(ValueError):
            process.attenuation_db(4.0)

    def test_same_time_requery_ok(self):
        process = make()
        first = process.attenuation_db(2.0)
        assert process.attenuation_db(2.0) == first

    def test_blocked_fraction_plausible(self):
        """Duty cycle ~= rate * duration / (1 + rate * duration)."""
        rate, duration = 0.5, 0.4
        process = make(rate=rate, mean_duration_s=duration, seed=9)
        times = np.arange(0.0, 2000.0, 0.05)
        blocked = np.mean([process.attenuation_db(t) > 0 for t in times])
        expected = rate * duration / (1 + rate * duration)
        assert blocked == pytest.approx(expected, rel=0.3)

    def test_attenuation_depth(self):
        process = make(rate=2.0, mean_attenuation_db=20.0, seed=4)
        depths = []
        for t in np.arange(0.0, 500.0, 0.02):
            value = process.attenuation_db(t)
            if value > 0:
                depths.append(value)
        assert depths, "expected some blockage over 500 s at rate 2/s"
        assert np.mean(depths) == pytest.approx(20.0, abs=3.0)

    def test_attenuation_never_negative(self):
        process = make(rate=5.0, mean_attenuation_db=2.0,
                       attenuation_sigma_db=5.0, seed=6)
        for t in np.arange(0.0, 50.0, 0.05):
            assert process.attenuation_db(t) >= 0.0

    def test_pruning_bounds_memory(self):
        process = make(rate=5.0, seed=2)
        for t in np.arange(0.0, 500.0, 0.5):
            process.attenuation_db(t)
        # Old events are pruned; the live list stays small.
        assert len(process._events) < 50
