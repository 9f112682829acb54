"""Random-waypoint mobility inside a rectangular area.

The classic evaluation model: pick a uniform random point in the area,
walk to it at the configured speed, optionally pause, repeat.  Used by
the extension experiments to stress Silent Tracker with unscripted
motion; the paper's own scenarios are the scripted walk / rotation /
vehicular models.

The waypoint sequence is drawn once at construction (enough waypoints
to cover ``horizon_s`` of motion), so ``pose_at`` stays a pure function
of time like every other trajectory.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.geometry.pose import Pose
from repro.geometry.vectors import Vec3
from repro.mobility.base import Trajectory
from repro.mobility.waypoint import WaypointPath


class RandomWaypoint(Trajectory):
    """Uniform random waypoints in ``[x0, x1] x [y0, y1]``.

    Parameters
    ----------
    area:
        ``(x0, y0, x1, y1)`` bounds in meters.
    speed_mps:
        Constant walking speed between waypoints.
    rng:
        Source for the waypoint draws (required: an unseeded random walk
        would break run reproducibility).
    horizon_s:
        Amount of motion to pre-draw; the node stops at its last
        waypoint beyond this.
    """

    def __init__(
        self,
        area: Tuple[float, float, float, float],
        speed_mps: float,
        rng: np.random.Generator,
        horizon_s: float = 120.0,
    ) -> None:
        x0, y0, x1, y1 = area
        if x1 <= x0 or y1 <= y0:
            raise ValueError(f"degenerate area {area!r}")
        if speed_mps <= 0.0:
            raise ValueError(f"speed must be positive, got {speed_mps!r}")
        if horizon_s <= 0.0:
            raise ValueError(f"horizon must be positive, got {horizon_s!r}")
        self.area = area

        def draw_point() -> Vec3:
            return Vec3(
                float(rng.uniform(x0, x1)), float(rng.uniform(y0, y1))
            )

        waypoints: List[Vec3] = [draw_point()]
        travelled_time = 0.0
        while travelled_time < horizon_s:
            candidate = draw_point()
            leg = waypoints[-1].distance_to(candidate)
            if leg < 0.5:
                continue  # skip near-duplicate points (undefined heading)
            waypoints.append(candidate)
            travelled_time += leg / speed_mps
        self._path = WaypointPath(waypoints, speed_mps)

    def position_bound(self, horizon_s=None):
        # The pre-drawn waypoint path is the entire reachable set.
        return self._path.position_bound(horizon_s)

    def pose_at(self, time_s: float) -> Pose:
        return self._path.pose_at(time_s)
