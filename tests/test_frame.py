"""Unit tests for SSB/RACH frame timing."""

import pytest

from repro.phy.frame import FrameConfig, RachConfig, SsbSchedule


class TestFrameConfig:
    def test_defaults(self):
        config = FrameConfig()
        assert config.ssb_period_s == 0.020

    def test_burst_duration(self):
        config = FrameConfig(ssb_dwell_s=125e-6)
        assert config.burst_duration_s(18) == pytest.approx(18 * 125e-6)

    def test_burst_duration_capped(self):
        config = FrameConfig(max_ssb_per_burst=64)
        assert config.burst_duration_s(100) == config.burst_duration_s(64)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            FrameConfig(ssb_period_s=0.0)
        with pytest.raises(ValueError):
            FrameConfig(max_ssb_per_burst=0)


class TestSsbSchedule:
    def test_burst_starts(self):
        schedule = SsbSchedule(FrameConfig(), 8, phase_s=0.005)
        assert schedule.burst_start(0) == 0.005
        assert schedule.burst_start(3) == pytest.approx(0.065)

    def test_next_burst_start(self):
        schedule = SsbSchedule(FrameConfig(), 8, phase_s=0.005)
        assert schedule.next_burst_start(0.0) == 0.005
        assert schedule.next_burst_start(0.005) == 0.005
        assert schedule.next_burst_start(0.006) == pytest.approx(0.025)

    def test_beams_in_burst(self):
        assert SsbSchedule(FrameConfig(), 4).beams_in_burst() == [0, 1, 2, 3]

    def test_rejects_too_many_beams(self):
        with pytest.raises(ValueError):
            SsbSchedule(FrameConfig(max_ssb_per_burst=16), 17)

    def test_rejects_bad_phase(self):
        with pytest.raises(ValueError):
            SsbSchedule(FrameConfig(), 4, phase_s=0.020)


class TestRachConfig:
    def test_next_occasion_grid(self):
        config = RachConfig(occasion_period_s=0.020, occasion_offset_s=0.010)
        assert config.next_occasion(0.0) == pytest.approx(0.010)
        assert config.next_occasion(0.010) == pytest.approx(0.010)
        assert config.next_occasion(0.0101) == pytest.approx(0.030)
        assert config.next_occasion(1.0) == pytest.approx(1.010)

    def test_rejects_offset_outside_period(self):
        with pytest.raises(ValueError):
            RachConfig(occasion_period_s=0.02, occasion_offset_s=0.02)

    def test_rejects_response_delay_beyond_window(self):
        with pytest.raises(ValueError):
            RachConfig(response_delay_s=0.02, response_window_s=0.01)

    def test_rejects_zero_attempts(self):
        with pytest.raises(ValueError):
            RachConfig(max_attempts=0)
