"""Unit tests for the link budget."""

import pytest

from repro.phy.link import LinkBudget


class TestNoiseFloor:
    def test_default_floor(self):
        budget = LinkBudget(bandwidth_hz=1e9, noise_figure_db=0.0)
        assert budget.noise_floor_dbm == pytest.approx(-84.0)

    def test_noise_figure_raises_floor(self):
        quiet = LinkBudget(noise_figure_db=0.0)
        noisy = LinkBudget(noise_figure_db=8.0)
        assert noisy.noise_floor_dbm == pytest.approx(quiet.noise_floor_dbm + 8.0)


class TestSnr:
    def test_snr_definition(self):
        budget = LinkBudget()
        assert budget.snr_db(budget.noise_floor_dbm) == pytest.approx(0.0)
        assert budget.snr_db(budget.noise_floor_dbm + 10.0) == pytest.approx(10.0)


class TestPacketSuccess:
    def test_half_at_decode_snr(self):
        budget = LinkBudget(decode_snr_db=5.0)
        rss = budget.noise_floor_dbm + 5.0
        assert budget.packet_success_probability(rss) == pytest.approx(0.5)

    def test_monotone_in_rss(self):
        budget = LinkBudget()
        probabilities = [
            budget.packet_success_probability(budget.noise_floor_dbm + snr)
            for snr in range(-10, 25)
        ]
        assert probabilities == sorted(probabilities)

    def test_saturates(self):
        budget = LinkBudget(decode_snr_db=5.0, decode_slope_db=1.0)
        noise = budget.noise_floor_dbm
        assert budget.packet_success_probability(noise + 60.0) == 1.0
        assert budget.packet_success_probability(noise - 60.0) == 0.0

    def test_slope_controls_sharpness(self):
        sharp = LinkBudget(decode_slope_db=0.5)
        soft = LinkBudget(decode_slope_db=3.0)
        rss = sharp.noise_floor_dbm + sharp.decode_snr_db + 2.0
        assert sharp.packet_success_probability(
            rss
        ) > soft.packet_success_probability(rss)


class TestValidation:
    def test_rejects_bad_bandwidth(self):
        with pytest.raises(ValueError):
            LinkBudget(bandwidth_hz=0.0)

    def test_rejects_bad_slope(self):
        with pytest.raises(ValueError):
            LinkBudget(decode_slope_db=0.0)
