"""Unit tests for repro.geometry.pose."""

import math

import pytest

from repro.geometry.pose import Pose
from repro.geometry.vectors import Vec3


class TestFrames:
    def test_zero_heading_identity(self):
        pose = Pose(Vec3(0, 0), heading=0.0)
        assert pose.world_to_body(0.7) == pytest.approx(0.7)

    def test_roundtrip(self):
        # A body azimuth turned into the world frame by the heading
        # comes back unchanged (wrapped to (-pi, pi]).
        pose = Pose(Vec3(1, 2), heading=1.1)
        for body in (-3.0, -1.0, 0.0, 2.0, 3.1):
            assert pose.world_to_body(body + pose.heading) == pytest.approx(body)

    def test_rotated_device_sees_target_shift(self):
        # Target due +x in world; device rotated +90deg sees it at -90deg
        # in its body frame.
        pose = Pose(Vec3(0, 0), heading=math.pi / 2)
        assert pose.world_to_body(0.0) == pytest.approx(-math.pi / 2)


class TestBearings:
    def test_bearing_to(self):
        pose = Pose(Vec3(0, 0), heading=0.0)
        assert pose.bearing_to(Vec3(0, 3)) == pytest.approx(math.pi / 2)

    def test_body_bearing_accounts_for_heading(self):
        pose = Pose(Vec3(0, 0), heading=math.pi / 2)
        # Target due north (world +y) is straight ahead in body frame.
        assert pose.body_bearing_to(Vec3(0, 3)) == pytest.approx(0.0)

    def test_distance_to(self):
        pose = Pose(Vec3(1, 1), heading=0.3)
        assert pose.distance_to(Vec3(4, 5)) == 5.0


class TestTransforms:
    def test_rotated_wraps(self):
        # A device turned to just below +pi sees a target just past -pi
        # across the seam, not a full turn away.
        pose = Pose(Vec3(0, 0), heading=math.pi - 0.1)
        assert pose.world_to_body(-math.pi + 0.1) == pytest.approx(0.2)

    def test_immutable(self):
        pose = Pose(Vec3(0, 0), heading=0.0)
        with pytest.raises(Exception):
            pose.heading = 1.0
