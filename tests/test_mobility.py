"""Unit tests for the mobility models."""

import math

import numpy as np
import pytest

from repro.geometry.pose import Pose
from repro.geometry.vectors import Vec3
from repro.mobility.base import StaticPose, TimeShifted
from repro.mobility.rotation import DeviceRotation
from repro.mobility.vehicular import VehicularDriveBy
from repro.mobility.walk import HumanWalk
from repro.mobility.waypoint import WaypointPath
from repro.util.units import mph_to_mps


class TestStaticPose:
    def test_never_moves(self):
        pose = Pose(Vec3(1, 2), heading=0.5)
        trajectory = StaticPose(pose)
        assert trajectory.pose_at(0.0) == pose
        assert trajectory.pose_at(100.0) == pose


class TestTimeShifted:
    def test_shifts_time(self):
        inner = HumanWalk(Vec3(0, 0), Vec3(1, 0))
        shifted = TimeShifted(inner, 5.0)
        assert shifted.pose_at(7.0).position.x == pytest.approx(
            inner.pose_at(2.0).position.x
        )

    def test_clamps_before_offset(self):
        inner = HumanWalk(Vec3(0, 0), Vec3(1, 0))
        shifted = TimeShifted(inner, 5.0)
        assert shifted.pose_at(1.0).position == inner.pose_at(0.0).position


class TestHumanWalk:
    def test_paper_speed(self):
        walk = HumanWalk(Vec3(0, 0), Vec3(1.4, 0))
        # Net progress tracks the nominal speed (gait sway is small and
        # lateral).
        moved = walk.pose_at(10.0).position.distance_to(walk.pose_at(0.0).position)
        assert moved / 10.0 == pytest.approx(1.4, rel=0.05)

    def test_progresses_along_velocity(self):
        walk = HumanWalk(Vec3(0, 0), Vec3(1.4, 0))
        assert walk.pose_at(10.0).position.x == pytest.approx(14.0, abs=0.1)
        assert abs(walk.pose_at(10.0).position.y) < 0.1

    def test_pure_function_of_time(self):
        walk = HumanWalk(Vec3(0, 0), Vec3(1.4, 0),
                         rng=np.random.default_rng(1))
        a = walk.pose_at(3.3)
        walk.pose_at(9.9)
        b = walk.pose_at(3.3)
        assert a == b

    def test_heading_wobbles_around_travel_direction(self):
        walk = HumanWalk(Vec3(0, 0), Vec3(0, 1.4))
        headings = [walk.pose_at(0.1 * k).heading for k in range(100)]
        travel = math.pi / 2
        assert all(abs(h - travel) < math.radians(10) for h in headings)
        assert max(headings) > min(headings)  # it does wobble

    def test_sway_is_lateral(self):
        walk = HumanWalk(Vec3(0, 0), Vec3(1.4, 0))
        ys = [walk.pose_at(0.05 * k).position.y for k in range(200)]
        assert max(ys) > 0.02
        assert min(ys) < -0.02

    def test_rejects_zero_velocity(self):
        with pytest.raises(ValueError):
            HumanWalk(Vec3(0, 0), Vec3(0, 0))

    def test_fixed_phases_without_rng(self):
        a = HumanWalk(Vec3(0, 0), Vec3(1.4, 0))
        b = HumanWalk(Vec3(0, 0), Vec3(1.4, 0))
        assert a.pose_at(1.234) == b.pose_at(1.234)


class TestDeviceRotation:
    def test_paper_rate(self):
        rotation = DeviceRotation(Vec3(5, 0), math.radians(120))
        # After 1 s the heading advanced 120 degrees (the 9 Hz tremor is
        # back at its zero phase).
        assert rotation.pose_at(1.0).heading == pytest.approx(
            math.radians(120), abs=1e-9
        )

    def test_position_fixed(self):
        rotation = DeviceRotation(Vec3(5, 1), math.radians(120))
        assert rotation.pose_at(0.0).position == Vec3(5, 1)
        assert rotation.pose_at(7.7).position == Vec3(5, 1)

    def test_heading_wraps(self):
        rotation = DeviceRotation(Vec3(0, 0), math.radians(120))
        heading = rotation.pose_at(2.0).heading  # 240 deg -> wraps to -120
        assert heading == pytest.approx(math.radians(-120), abs=1e-9)

    def test_negative_rate(self):
        rotation = DeviceRotation(Vec3(0, 0), -math.radians(60))
        assert rotation.pose_at(1.0).heading == pytest.approx(-math.radians(60))

    def test_rejects_zero_rate(self):
        with pytest.raises(ValueError):
            DeviceRotation(Vec3(0, 0), 0.0)


class TestVehicular:
    def test_paper_speed(self):
        vehicle = VehicularDriveBy(Vec3(0, 0), 0.0, mph_to_mps(20.0))
        moved = vehicle.pose_at(1.0).position.distance_to(Vec3(0, 0))
        assert moved == pytest.approx(8.9408)

    def test_straight_line(self):
        vehicle = VehicularDriveBy(Vec3(0, 0), 0.0, 10.0)
        assert vehicle.pose_at(10.0).position == Vec3(100.0, 0.0)
        # At t = 10 s both jitter tones (1.7 and 4.3 Hz) are back at
        # their zero phase, so the heading is the road's.
        assert vehicle.pose_at(10.0).heading == pytest.approx(0.0, abs=1e-9)

    def test_angular_rate_peaks_at_closest_approach(self):
        """From a base station 10 m off the road, bearing changes fastest
        at the point of closest approach."""
        vehicle = VehicularDriveBy(Vec3(-50, 0), 0.0, mph_to_mps(20.0))
        station = Vec3(0.0, 10.0)

        def bearing_rate(t, dt=0.01):
            b0 = (station - vehicle.pose_at(t).position).azimuth()
            b1 = (station - vehicle.pose_at(t + dt).position).azimuth()
            return abs(b1 - b0) / dt

        t_closest = 50.0 / mph_to_mps(20.0)
        assert bearing_rate(t_closest) > bearing_rate(t_closest - 3.0)
        assert bearing_rate(t_closest) > bearing_rate(t_closest + 3.0)

    def test_rejects_bad_speed(self):
        with pytest.raises(ValueError):
            VehicularDriveBy(Vec3(0, 0), 0.0, 0.0)


class TestWaypointPath:
    def test_visits_waypoints(self):
        path = WaypointPath([Vec3(0, 0), Vec3(10, 0), Vec3(10, 10)], 1.0)
        assert path.pose_at(0.0).position == Vec3(0, 0)
        assert path.pose_at(10.0).position.x == pytest.approx(10.0)
        end = path.pose_at(20.0).position
        assert (end.x, end.y) == (pytest.approx(10.0), pytest.approx(10.0))

    def test_heading_follows_segment(self):
        path = WaypointPath([Vec3(0, 0), Vec3(10, 0), Vec3(10, 10)], 1.0)
        assert path.pose_at(5.0).heading == pytest.approx(0.0)
        assert path.pose_at(15.0).heading == pytest.approx(math.pi / 2)

    def test_clamps_beyond_end(self):
        path = WaypointPath([Vec3(0, 0), Vec3(5, 0)], 1.0)
        assert path.pose_at(100.0).position.x == pytest.approx(5.0)

    def test_clamps_before_start(self):
        path = WaypointPath([Vec3(0, 0), Vec3(5, 0)], 1.0)
        assert path.pose_at(-3.0).position == Vec3(0, 0)

    def test_rejects_single_waypoint(self):
        with pytest.raises(ValueError):
            WaypointPath([Vec3(0, 0)], 1.0)

    def test_rejects_repeated_waypoint(self):
        with pytest.raises(ValueError):
            WaypointPath([Vec3(0, 0), Vec3(0, 0)], 1.0)

    def test_rejects_bad_speed(self):
        with pytest.raises(ValueError):
            WaypointPath([Vec3(0, 0), Vec3(1, 0)], 0.0)
