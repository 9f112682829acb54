"""Unit tests for antenna patterns."""

import math

import numpy as np
import pytest

from repro.phy.antenna import (
    GaussianBeamPattern,
    OmniPattern,
    peak_gain_dbi_for_beamwidth,
)


class TestPeakGain:
    def test_narrow_beats_wide(self):
        narrow = peak_gain_dbi_for_beamwidth(math.radians(20))
        wide = peak_gain_dbi_for_beamwidth(math.radians(60))
        assert narrow > wide

    def test_plausible_values(self):
        # 20-degree azimuth beam on a phone module: mid-teens dBi.
        gain = peak_gain_dbi_for_beamwidth(math.radians(20))
        assert 12.0 < gain < 20.0

    def test_full_circle_near_omni(self):
        # A full-circle azimuth beam with 60-deg elevation focus keeps a
        # small residual gain (a real omni patch has ~2 dBi).
        assert 0.0 <= peak_gain_dbi_for_beamwidth(2 * math.pi) < 3.0

    def test_rejects_bad_beamwidth(self):
        with pytest.raises(ValueError):
            peak_gain_dbi_for_beamwidth(0.0)

    def test_rejects_bad_efficiency(self):
        with pytest.raises(ValueError):
            peak_gain_dbi_for_beamwidth(1.0, efficiency=0.0)


class TestGaussianBeam:
    def make(self, bw_deg=20.0, **kwargs):
        return GaussianBeamPattern(math.radians(bw_deg), **kwargs)

    def test_boresight_is_peak(self):
        beam = self.make()
        assert beam.gain_dbi(0.0) == beam.peak_gain_dbi

    def test_exactly_3db_at_half_beamwidth(self):
        beam = self.make(20.0)
        half = math.radians(10.0)
        assert beam.gain_dbi(half) == pytest.approx(beam.peak_gain_dbi - 3.0)

    def test_symmetric(self):
        beam = self.make()
        for offset in (0.05, 0.1, 0.4, 1.0):
            assert beam.gain_dbi(offset) == pytest.approx(beam.gain_dbi(-offset))

    def test_monotone_within_mainlobe(self):
        beam = self.make(30.0)
        offsets = np.linspace(0, math.radians(15), 30)
        gains = [beam.gain_dbi(float(o)) for o in offsets]
        assert all(a >= b for a, b in zip(gains, gains[1:]))

    def test_sidelobe_floor(self):
        # Far off boresight the gain sits on one flat floor below the peak.
        beam = self.make(20.0)
        floor = beam.gain_dbi(math.pi)
        assert beam.gain_dbi(math.pi / 2) == floor
        assert floor < beam.peak_gain_dbi

    def test_wraps_offsets(self):
        beam = self.make()
        assert beam.gain_dbi(2 * math.pi + 0.01) == pytest.approx(
            beam.gain_dbi(0.01)
        )

    def test_array_matches_scalar(self):
        beam = self.make(40.0)
        offsets = np.linspace(-math.pi, math.pi, 17)
        vectorized = beam.gain_dbi_array(offsets)
        scalar = [beam.gain_dbi(float(o)) for o in offsets]
        np.testing.assert_allclose(vectorized, scalar)

    def test_explicit_peak_gain(self):
        beam = self.make(20.0, peak_gain_dbi=25.0)
        assert beam.peak_gain_dbi == 25.0

    def test_rejects_positive_sidelobe(self):
        with pytest.raises(ValueError):
            self.make(20.0, sidelobe_rel_db=1.0)

    def test_rejects_bad_beamwidth(self):
        with pytest.raises(ValueError):
            GaussianBeamPattern(0.0)


class TestOmni:
    def test_flat(self):
        omni = OmniPattern(2.0)
        for offset in (-3.0, 0.0, 1.0, 3.14):
            assert omni.gain_dbi(offset) == 2.0

    def test_beamwidth_full_circle(self):
        assert OmniPattern().beamwidth_rad == 2 * math.pi

    def test_array(self):
        omni = OmniPattern(1.5)
        np.testing.assert_allclose(
            omni.gain_dbi_array(np.array([0.0, 1.0])), [1.5, 1.5]
        )

