"""Property-based tests (hypothesis) on core invariants."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.neighbor_tracker import spiral_order
from repro.geometry.angles import (
    angular_distance,
    signed_angle_delta,
    wrap_to_pi,
)
from repro.geometry.pose import Pose
from repro.geometry.vectors import Vec3
from repro.measure.filters import DropDetector, HysteresisTrigger
from repro.phy.antenna import GaussianBeamPattern
from repro.phy.codebook import Codebook
from repro.phy.pathloss import CloseInPathLoss
from repro.util.numerics import Ewma, quantile
from repro.util.units import linear_to_db

angles = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)


class TestAngleProperties:
    @given(angles)
    def test_wrap_to_pi_range(self, angle):
        wrapped = wrap_to_pi(angle)
        assert -math.pi < wrapped <= math.pi + 1e-12

    @given(angles)
    def test_wrap_idempotent(self, angle):
        once = wrap_to_pi(angle)
        assert wrap_to_pi(once) == once

    @given(angles)
    def test_wrap_preserves_direction(self, angle):
        wrapped = wrap_to_pi(angle)
        assert math.sin(wrapped) == math.sin(angle) or abs(
            math.sin(wrapped) - math.sin(angle)
        ) < 1e-9

    @given(angles, angles)
    def test_angular_distance_symmetric_bounded(self, a, b):
        d = angular_distance(a, b)
        assert 0.0 <= d <= math.pi + 1e-12
        # Symmetric up to fmod rounding at large magnitudes.
        assert abs(d - angular_distance(b, a)) < 1e-9

    @given(angles, angles)
    def test_delta_recovers_target(self, target, source):
        delta = signed_angle_delta(target, source)
        assert angular_distance(source + delta, target) < 1e-9

    @given(angles, angles, angles)
    def test_triangle_inequality(self, a, b, c):
        assert angular_distance(a, c) <= (
            angular_distance(a, b) + angular_distance(b, c) + 1e-9
        )


class TestPoseProperties:
    @given(angles, angles)
    def test_frame_roundtrip(self, heading, azimuth):
        pose = Pose(Vec3(0, 0), heading=wrap_to_pi(heading))
        there = pose.world_to_body(azimuth)
        assert angular_distance(there + pose.heading, azimuth) < 1e-9


class TestUnitsProperties:
    @given(st.floats(-200.0, 200.0, allow_nan=False))
    def test_db_roundtrip(self, db):
        assert abs(linear_to_db(10.0 ** (db / 10.0)) - db) < 1e-6

    @given(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0))
    def test_db_addition_is_linear_multiplication(self, a, b):
        product = 10.0 ** (a / 10.0) * 10.0 ** (b / 10.0)
        assert abs(linear_to_db(product) - (a + b)) < 1e-6


class TestNumericsProperties:
    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=50),
           st.floats(0.0, 1.0))
    def test_quantile_within_range(self, values, q):
        ordered = sorted(values)
        result = quantile(ordered, q)
        # Interpolation may round a hair outside the hull; allow one ulp
        # of slack relative to the value magnitude.
        slack = 1e-12 * max(1.0, abs(ordered[0]), abs(ordered[-1]))
        assert ordered[0] - slack <= result <= ordered[-1] + slack

    @given(st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=40),
           st.floats(0.01, 1.0))
    def test_ewma_stays_in_sample_hull(self, samples, alpha):
        filt = Ewma(alpha)
        for sample in samples:
            value = filt.update(sample)
        assert min(samples) - 1e-9 <= value <= max(samples) + 1e-9


class TestCodebookProperties:
    @given(st.sampled_from([15.0, 20.0, 30.0, 45.0, 60.0, 90.0]), angles)
    def test_best_beam_within_half_spacing(self, beamwidth, azimuth):
        codebook = Codebook.uniform_azimuth(beamwidth)
        best = codebook.best_beam_towards(azimuth)
        spacing = 2 * math.pi / len(codebook)
        assert angular_distance(best.boresight_rad, azimuth) <= spacing / 2 + 1e-9

    @given(st.integers(2, 40), st.integers(0, 39))
    def test_spiral_order_is_permutation(self, n, center):
        center %= n
        order = spiral_order(center, n)
        assert sorted(order) == list(range(n))
        assert order[0] == center


class TestAntennaProperties:
    @given(st.floats(5.0, 180.0), angles)
    def test_gain_never_exceeds_peak(self, beamwidth_deg, offset):
        beam = GaussianBeamPattern(math.radians(beamwidth_deg))
        assert beam.gain_dbi(offset) <= beam.peak_gain_dbi + 1e-9

    @given(st.floats(5.0, 180.0), st.floats(0.0, math.pi))
    def test_gain_symmetric(self, beamwidth_deg, offset):
        beam = GaussianBeamPattern(math.radians(beamwidth_deg))
        # Symmetric up to fmod rounding in the angle wrap.
        assert abs(beam.gain_dbi(offset) - beam.gain_dbi(-offset)) < 1e-9


class TestPathlossProperties:
    @given(st.floats(1.0, 500.0), st.floats(1.0, 500.0),
           st.floats(1.5, 4.0))
    def test_monotone_in_distance(self, d1, d2, exponent):
        model = CloseInPathLoss(60e9, exponent=exponent)
        near, far = min(d1, d2), max(d1, d2)
        assert model.path_loss_db(near) <= model.path_loss_db(far) + 1e-9


class TestFilterProperties:
    @given(st.lists(st.floats(-90.0, -30.0), min_size=1, max_size=30))
    @settings(max_examples=50)
    def test_drop_detector_never_fires_within_threshold(self, samples):
        """Samples all within 3 dB of the reference never trigger."""
        detector = DropDetector(3.0, alpha=1.0)
        detector.rearm(-60.0)
        for sample in samples:
            bounded = min(max(sample, -62.9), -57.1)
            fired = detector.update(bounded)
            if detector.reference_dbm == -60.0:
                assert not fired

    @given(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=50))
    def test_hysteresis_state_consistent(self, margins):
        trigger = HysteresisTrigger(3.0, 1.5)
        for margin in margins:
            state = trigger.update(margin)
            if margin > 3.0:
                assert state
            if margin < 1.5:
                assert not state
