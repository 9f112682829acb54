"""Unit tests for repro.geometry.vectors."""

import math

import pytest

from repro.geometry.vectors import Vec3, bearing_xy, distance


class TestArithmetic:
    def test_add(self):
        assert Vec3(1, 2, 3) + Vec3(4, 5, 6) == Vec3(5, 7, 9)

    def test_sub(self):
        assert Vec3(4, 5, 6) - Vec3(1, 2, 3) == Vec3(3, 3, 3)

    def test_scalar_mul_commutes(self):
        assert Vec3(1, 2, 3) * 2 == 2 * Vec3(1, 2, 3) == Vec3(2, 4, 6)

    def test_div(self):
        assert Vec3(2, 4, 6) / 2 == Vec3(1, 2, 3)

    def test_neg(self):
        assert -Vec3(1, -2, 3) == Vec3(-1, 2, -3)

    def test_immutable(self):
        v = Vec3(1, 2, 3)
        with pytest.raises(Exception):
            v.x = 9


class TestProducts:
    def test_dot(self):
        assert Vec3(1, 2, 3).dot(Vec3(4, -5, 6)) == 12


class TestNorms:
    def test_norm(self):
        assert Vec3(3, 4, 0).norm() == 5.0

    def test_norm_xy_ignores_z(self):
        assert Vec3(3, 4, 100).norm_xy() == 5.0

    def test_normalized(self):
        unit = Vec3(0, 0, 5).normalized()
        assert unit == Vec3(0, 0, 1)

    def test_normalize_zero_raises(self):
        with pytest.raises(ValueError):
            Vec3(0.0, 0.0, 0.0).normalized()

    def test_distance(self):
        assert distance(Vec3(0, 0), Vec3(3, 4)) == 5.0
        assert Vec3(0, 0).distance_to(Vec3(3, 4)) == 5.0


class TestAzimuth:
    def test_plus_x(self):
        assert Vec3(1, 0).azimuth() == pytest.approx(0.0)

    def test_plus_y(self):
        assert Vec3(0, 1).azimuth() == pytest.approx(math.pi / 2)

    def test_minus_x(self):
        assert abs(Vec3(-1, 0).azimuth()) == pytest.approx(math.pi)

    def test_undefined_for_vertical(self):
        with pytest.raises(ValueError):
            Vec3(0, 0, 1).azimuth()

    def test_bearing(self):
        assert bearing_xy(Vec3(0, 0), Vec3(0, 5)) == pytest.approx(math.pi / 2)

    def test_bearing_coincident_raises(self):
        with pytest.raises(ValueError):
            bearing_xy(Vec3(1, 1), Vec3(1, 1))


class TestRotation:
    def test_from_polar(self):
        v = Vec3.from_polar_xy(2.0, math.pi / 2)
        assert v.x == pytest.approx(0.0, abs=1e-12)
        assert v.y == pytest.approx(2.0)
