"""Unit tests for repro.util.units."""

import math

import pytest

from repro.util import units


class TestDbConversions:
    def test_linear_to_db_roundtrip(self):
        for value in (0.001, 0.5, 1.0, 2.0, 1000.0):
            assert 10.0 ** (units.linear_to_db(value) / 10.0) == pytest.approx(
                value
            )

    def test_linear_to_db_rejects_zero(self):
        with pytest.raises(ValueError):
            units.linear_to_db(0.0)

    def test_linear_to_db_rejects_negative(self):
        with pytest.raises(ValueError):
            units.linear_to_db(-1.0)


class TestThermalNoise:
    def test_one_hz_reference(self):
        assert units.thermal_noise_dbm(1.0) == pytest.approx(-174.0)

    def test_gigahertz_band(self):
        # -174 + 90 = -84 dBm over 1 GHz.
        assert units.thermal_noise_dbm(1e9) == pytest.approx(-84.0)

    def test_noise_figure_adds(self):
        base = units.thermal_noise_dbm(1e9)
        assert units.thermal_noise_dbm(1e9, noise_figure_db=8.0) == pytest.approx(
            base + 8.0
        )

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ValueError):
            units.thermal_noise_dbm(0.0)


class TestSpeedConversions:
    def test_paper_vehicular_speed(self):
        # The paper's 20 mph scenario.
        assert units.mph_to_mps(20.0) == pytest.approx(8.9408)

    def test_deg_per_s(self):
        # The paper's 120 deg/s rotation.
        assert units.deg_per_s_to_rad_per_s(120.0) == pytest.approx(
            2.0 * math.pi / 3.0
        )
