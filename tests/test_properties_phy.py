"""Property-based tests on PHY substrate invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy.blockage import BlockageConfig, BlockageProcess
from repro.phy.fading import RicianFading
from repro.phy.frame import FrameConfig, RachConfig
from repro.phy.link import LinkBudget
from repro.phy.pathloss import CloseInPathLoss
from repro.phy.shadowing import ShadowingProcess

seeds = st.integers(0, 2**31 - 1)


class TestShadowingProperties:
    @given(seeds, st.lists(st.floats(0.0, 2.0), min_size=1, max_size=30))
    @settings(max_examples=50)
    def test_any_forward_step_sequence_valid(self, seed, steps):
        """Non-decreasing distance sequences never raise and always
        produce finite values."""
        process = ShadowingProcess(3.0, 1.5, np.random.default_rng(seed))
        distance = 0.0
        for step in steps:
            distance += step
            value = process.sample_db(distance)
            assert np.isfinite(value)

    @given(seeds)
    @settings(max_examples=30)
    def test_zero_step_is_stable(self, seed):
        process = ShadowingProcess(3.0, 1.5, np.random.default_rng(seed))
        first = process.sample_db(1.0)
        for _ in range(5):
            assert abs(process.sample_db(1.0) - first) < 3.0 * 3 + 1e-9


class TestBlockageProperties:
    @given(seeds, st.floats(0.1, 3.0))
    @settings(max_examples=30)
    def test_attenuation_nonnegative_and_finite(self, seed, rate):
        process = BlockageProcess(
            BlockageConfig(rate_per_s=rate), np.random.default_rng(seed)
        )
        for k in range(100):
            value = process.attenuation_db(0.1 * k)
            assert value >= 0.0
            assert np.isfinite(value)

    @given(seeds)
    @settings(max_examples=30)
    def test_events_serialized(self, seed):
        """The renewal construction never overlaps events."""
        process = BlockageProcess(
            BlockageConfig(rate_per_s=2.0), np.random.default_rng(seed)
        )
        process.attenuation_db(50.0)
        events = process._events
        for earlier, later in zip(events, events[1:]):
            assert earlier.end_s <= later.start_s + 1e-12


class TestFadingProperties:
    @given(seeds, st.floats(0.0, 30.0))
    @settings(max_examples=40)
    def test_finite_draws(self, seed, k_db):
        fading = RicianFading(k_db, np.random.default_rng(seed))
        draws = fading.sample_db_array(100)
        assert np.all(np.isfinite(draws))

    @given(seeds)
    @settings(max_examples=20)
    def test_mean_power_near_unity(self, seed):
        fading = RicianFading(10.0, np.random.default_rng(seed))
        draws = fading.sample_db_array(5000)
        mean_power = float(np.mean(10.0 ** (draws / 10.0)))
        assert 0.85 < mean_power < 1.15


class TestPathlossProperties:
    @given(st.floats(2.0, 100.0), st.floats(1.6, 4.0), st.floats(1.6, 4.0))
    def test_higher_exponent_more_loss(self, distance, e1, e2):
        lower, higher = min(e1, e2), max(e1, e2)
        a = CloseInPathLoss(60e9, exponent=lower)
        b = CloseInPathLoss(60e9, exponent=higher)
        assert a.path_loss_db(distance) <= b.path_loss_db(distance) + 1e-9


class TestLinkBudgetProperties:
    @given(st.floats(-120.0, 0.0))
    def test_success_probability_in_unit_interval(self, rss):
        budget = LinkBudget()
        p = budget.packet_success_probability(rss)
        assert 0.0 <= p <= 1.0

    @given(st.floats(-120.0, -20.0), st.floats(0.1, 20.0))
    def test_margin_never_hurts(self, rss, margin):
        budget = LinkBudget()
        assert budget.packet_success_probability(
            rss + margin
        ) >= budget.packet_success_probability(rss)


class TestFrameProperties:
    @given(st.floats(0.0, 10.0))
    def test_next_occasion_at_or_after_now(self, now):
        config = RachConfig()
        occasion = config.next_occasion(now)
        assert occasion >= now - 1e-9
        assert occasion - now < config.occasion_period_s + 1e-9

    @given(st.floats(0.0, 10.0), st.integers(1, 64))
    def test_next_burst_at_or_after_now(self, now, n_beams):
        from repro.phy.frame import SsbSchedule

        schedule = SsbSchedule(FrameConfig(), n_beams, phase_s=0.004)
        start = schedule.next_burst_start(now)
        assert start >= now - 1e-9
        assert start - now < FrameConfig().ssb_period_s + 1e-9
