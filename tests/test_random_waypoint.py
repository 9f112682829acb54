"""Tests for the random-waypoint mobility model."""

import numpy as np
import pytest

from repro.geometry.vectors import Vec3
from repro.mobility.random_waypoint import RandomWaypoint

AREA = (0.0, 0.0, 30.0, 20.0)


def make(seed=1, **kwargs):
    kwargs.setdefault("speed_mps", 1.4)
    return RandomWaypoint(AREA, rng=np.random.default_rng(seed), **kwargs)


class TestRandomWaypoint:
    def test_stays_in_area(self):
        model = make()
        # Past the default 120 s horizon, so the parked end is checked too.
        for t in np.linspace(0.0, 150.0, 300):
            position = model.pose_at(float(t)).position
            assert AREA[0] - 1e-9 <= position.x <= AREA[2] + 1e-9
            assert AREA[1] - 1e-9 <= position.y <= AREA[3] + 1e-9

    def test_speed_respected(self):
        model = make()
        dt = 0.1
        times = np.arange(0.0, 30.0 - dt, dt)  # within the 120 s horizon
        speeds = [
            model.pose_at(t + dt).position.distance_to(model.pose_at(t).position) / dt
            for t in times.tolist()
        ]
        # Never faster than configured; at speed except across a turn.
        assert max(speeds) <= 1.4 * (1.0 + 1e-9)
        assert float(np.median(speeds)) == pytest.approx(1.4, rel=0.01)

    def test_pure_function_of_time(self):
        model = make(seed=5)
        a = model.pose_at(7.3)
        model.pose_at(50.0)
        assert model.pose_at(7.3) == a

    def test_deterministic_per_seed(self):
        a = make(seed=9)
        b = make(seed=9)
        for t in (0.0, 5.0, 20.0):
            assert a.pose_at(t) == b.pose_at(t)

    def test_seeds_differ(self):
        a, b = make(seed=1), make(seed=2)
        assert a.pose_at(10.0).position != b.pose_at(10.0).position

    def test_horizon_covered(self):
        # Still moving just before the horizon: the drawn path covers it.
        model = make(horizon_s=60.0)
        assert model.pose_at(59.9).position != model.pose_at(60.0).position

    def test_explicit_start(self):
        model = make(start=Vec3(15.0, 10.0))
        assert model.pose_at(0.0).position == Vec3(15.0, 10.0)

    def test_parks_at_end(self):
        model = make(horizon_s=10.0)
        end = model.pose_at(1000.0).position
        later = model.pose_at(1100.0).position
        assert end == later

    def test_validates_area(self):
        with pytest.raises(ValueError):
            RandomWaypoint((0, 0, 0, 10), 1.0, np.random.default_rng(1))

    def test_validates_speed(self):
        with pytest.raises(ValueError):
            RandomWaypoint(AREA, 0.0, np.random.default_rng(1))

    def test_validates_horizon(self):
        with pytest.raises(ValueError):
            RandomWaypoint(AREA, 1.0, np.random.default_rng(1), horizon_s=0.0)
