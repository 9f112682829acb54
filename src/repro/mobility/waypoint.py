"""Piecewise-linear waypoint paths.

General-purpose trajectory for examples and custom scenarios: the node
visits a list of waypoints at constant speed, heading along the current
segment, and stops at the final waypoint.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.geometry.pose import Pose
from repro.geometry.vectors import Vec3
from repro.mobility.base import Trajectory
from repro.util.numerics import pairwise


class WaypointPath(Trajectory):
    """Visit ``waypoints`` in order at constant ``speed_mps``.

    Zero-length segments (repeated waypoints) are rejected — they would
    make the heading undefined.
    """

    def __init__(self, waypoints: Sequence[Vec3], speed_mps: float) -> None:
        if len(waypoints) < 2:
            raise ValueError("need at least two waypoints")
        if speed_mps <= 0.0:
            raise ValueError(f"speed must be positive, got {speed_mps!r}")
        self._waypoints: List[Vec3] = list(waypoints)
        self._speed = speed_mps
        self._segment_starts: List[float] = [0.0]
        self._headings: List[float] = []
        elapsed = 0.0
        for a, b in pairwise(self._waypoints):
            length = a.distance_to(b)
            if length <= 0.0:
                raise ValueError(f"zero-length segment at waypoint {a!r}")
            self._headings.append((b - a).azimuth())
            elapsed += length / speed_mps
            self._segment_starts.append(elapsed)
        self._total_time = elapsed

    def position_bound(self, horizon_s=None):
        # The node is always on a segment between waypoints (clamped at
        # both ends), and distance to a fixed point is convex along a
        # segment, so the farthest reachable point from any center is a
        # waypoint.  Valid for every horizon.
        center = Vec3(
            sum(w.x for w in self._waypoints) / len(self._waypoints),
            sum(w.y for w in self._waypoints) / len(self._waypoints),
            sum(w.z for w in self._waypoints) / len(self._waypoints),
        )
        radius = max(center.distance_to(w) for w in self._waypoints)
        return (center, radius)

    def pose_at(self, time_s: float) -> Pose:
        clamped = min(max(time_s, 0.0), self._total_time)
        # Find the active segment: last start <= clamped.
        # Linear scan is fine; paths have a handful of waypoints.
        segment = 0
        for i in range(len(self._headings)):
            if self._segment_starts[i] <= clamped:
                segment = i
            else:
                break
        seg_elapsed = clamped - self._segment_starts[segment]
        origin = self._waypoints[segment]
        target = self._waypoints[segment + 1]
        direction = (target - origin).normalized()
        position = origin + direction * (self._speed * seg_elapsed)
        return Pose(position, self._headings[segment])
