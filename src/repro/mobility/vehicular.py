"""Vehicular drive-by trajectory.

The paper's vehicular scenario: the mobile passes the cell at 20 mph
(8.94 m/s).  Compared to the walk, the translation is ~6x faster, so the
angular rate seen from a base station 10 m off the road peaks at
``v / d ~= 0.9 rad/s ~= 51 deg/s`` at the point of closest approach —
between the walk and rotation scenarios in beam-switch pressure, but
with rapidly changing path loss as well.

Small suspension-induced heading jitter is included; fixed phases keep
the trajectory pure.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.geometry.angles import wrap_to_pi
from repro.geometry.pose import Pose
from repro.geometry.vectors import Vec3
from repro.mobility.base import Trajectory


class VehicularDriveBy(Trajectory):
    """Straight-line drive at constant speed, heading locked to travel.

    Parameters
    ----------
    start:
        Position at t = 0.
    heading_rad:
        Direction of travel (also the device heading; the device is
        mounted in the vehicle).
    speed_mps:
        Speed in m/s; the paper's 20 mph is
        ``repro.util.units.mph_to_mps(20.0)``.
    jitter_amplitude_rad:
        Suspension/road heading jitter.
    """

    def __init__(
        self,
        start: Vec3,
        heading_rad: float,
        speed_mps: float,
        jitter_amplitude_rad: float = math.radians(0.5),
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if speed_mps <= 0.0:
            raise ValueError(f"speed must be positive, got {speed_mps!r}")
        self._start = start
        self._heading = heading_rad
        self._velocity = Vec3.from_polar_xy(speed_mps, heading_rad)
        self._jitter_amplitude = jitter_amplitude_rad
        if rng is None:
            self._jitter_phases = (0.0, 0.0)
        else:
            phases = rng.uniform(0.0, 2.0 * math.pi, size=2)
            self._jitter_phases = (float(phases[0]), float(phases[1]))

    def position_bound(self, horizon_s=None):
        # Heading jitter never displaces the vehicle, so the bound is the
        # straight travel segment over the horizon.
        if horizon_s is None:
            return None
        end = self._start + self._velocity * horizon_s
        center = (self._start + end) * 0.5
        half = max(center.distance_to(self._start), center.distance_to(end))
        return (center, half)

    def pose_at(self, time_s: float) -> Pose:
        # start + velocity * t in the Vec3 operators' order: one Vec3
        # instead of two.
        start = self._start
        velocity = self._velocity
        position = Vec3(
            start.x + velocity.x * time_s,
            start.y + velocity.y * time_s,
            start.z + velocity.z * time_s,
        )
        jitter = self._jitter_amplitude * (
            0.6 * math.sin(2.0 * math.pi * 1.7 * time_s + self._jitter_phases[0])
            + 0.4 * math.sin(2.0 * math.pi * 4.3 * time_s + self._jitter_phases[1])
        )
        return Pose(position, wrap_to_pi(self._heading + jitter))
