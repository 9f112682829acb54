"""Unit tests for repro.geometry.angles."""

import math

import pytest

from repro.geometry.angles import (
    angular_distance,
    signed_angle_delta,
    wrap_to_pi,
)


class TestWrapToPi:
    def test_identity_in_range(self):
        assert wrap_to_pi(1.0) == pytest.approx(1.0)

    def test_wraps_above(self):
        assert wrap_to_pi(math.pi + 0.1) == pytest.approx(-math.pi + 0.1)

    def test_wraps_below(self):
        assert wrap_to_pi(-math.pi - 0.1) == pytest.approx(math.pi - 0.1)

    def test_pi_maps_to_pi(self):
        # The convention is (-pi, pi]: +pi stays.
        assert wrap_to_pi(math.pi) == pytest.approx(math.pi)

    def test_minus_pi_maps_to_pi(self):
        assert wrap_to_pi(-math.pi) == pytest.approx(math.pi)

    def test_multiple_turns(self):
        assert wrap_to_pi(5 * math.pi + 0.3) == pytest.approx(-math.pi + 0.3)

    def test_zero(self):
        assert wrap_to_pi(0.0) == 0.0


class TestSignedDelta:
    def test_simple(self):
        assert signed_angle_delta(1.0, 0.5) == pytest.approx(0.5)

    def test_across_seam(self):
        # Shortest rotation from just-below +pi to just-above -pi is
        # positive and small.
        assert signed_angle_delta(-math.pi + 0.1, math.pi - 0.1) == pytest.approx(
            0.2
        )

    def test_antisymmetric(self):
        delta = signed_angle_delta(0.3, 2.8)
        assert signed_angle_delta(2.8, 0.3) == pytest.approx(-delta)


class TestAngularDistance:
    def test_symmetric(self):
        assert angular_distance(0.3, 2.8) == angular_distance(2.8, 0.3)

    def test_max_is_pi(self):
        assert angular_distance(0.0, math.pi) == pytest.approx(math.pi)

    def test_seam(self):
        assert angular_distance(math.pi - 0.05, -math.pi + 0.05) == pytest.approx(
            0.1
        )

    def test_zero(self):
        assert angular_distance(1.234, 1.234) == 0.0

