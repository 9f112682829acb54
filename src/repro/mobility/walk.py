"""Human-walk trajectory with gait texture.

The paper's walk scenario: a pedestrian carrying the mobile moves at
``v = 1.4 m/s`` along the cell edge, 10 m from the serving base station.
A straight constant-velocity line misses the two motion components that
actually stress beam management, so the model adds:

* **Gait sway** — lateral body oscillation at step frequency (~1.9 Hz
  at 1.4 m/s), a few centimeters in amplitude.
* **Heading wobble** — the hand-held device's orientation oscillates a
  few degrees around the direction of travel, at gait frequency plus a
  slower wander term.

Both are sums of sinusoids with phases fixed at construction from the
provided RNG, keeping ``pose_at`` a pure function of time.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.geometry.angles import wrap_to_pi
from repro.geometry.pose import Pose
from repro.geometry.vectors import Vec3
from repro.mobility.base import Trajectory


class HumanWalk(Trajectory):
    """Constant-velocity walk with gait sway and heading wobble.

    Parameters
    ----------
    start:
        Starting position (meters, world frame).
    velocity:
        Constant velocity vector; its magnitude is the walking speed
        (paper: 1.4 m/s) and its direction the path direction.
    sway_amplitude_m:
        Lateral sway amplitude (0 disables).
    wobble_amplitude_rad:
        Peak device-heading oscillation about the travel direction.
    rng:
        Source for the fixed phases; ``None`` uses zero phases
        (deterministic canonical gait).
    """

    def __init__(
        self,
        start: Vec3,
        velocity: Vec3,
        sway_amplitude_m: float = 0.03,
        wobble_amplitude_rad: float = math.radians(4.0),
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        speed = velocity.norm_xy()
        if speed <= 0.0:
            raise ValueError("walk requires a nonzero horizontal velocity")
        self._start = start
        self._velocity = velocity
        self._travel_heading = velocity.azimuth()
        # Step frequency scales with speed: ~1.35 steps/s per m/s of
        # speed (normal-gait fit), i.e. ~1.9 Hz at 1.4 m/s.
        self._gait_hz = 1.35 * speed
        self._sway_amplitude = sway_amplitude_m
        self._wobble_amplitude = wobble_amplitude_rad
        if rng is None:
            phases = np.zeros(3)
        else:
            phases = rng.uniform(0.0, 2.0 * math.pi, size=3)
        self._sway_phase = float(phases[0])
        self._wobble_phase = float(phases[1])
        self._wander_phase = float(phases[2])
        # Unit lateral direction (left of travel).
        self._lateral = Vec3(
            -math.sin(self._travel_heading), math.cos(self._travel_heading), 0.0
        )

    def position_bound(self, horizon_s=None):
        # Unbounded straight-line motion: only a finite horizon yields a
        # bound.  The position is the along-track point plus lateral
        # sway of at most the sway amplitude, so the segment midpoint
        # padded by (half segment + sway) covers every t in [0, horizon].
        if horizon_s is None:
            return None
        end = self._start + self._velocity * horizon_s
        center = (self._start + end) * 0.5
        half = max(center.distance_to(self._start), center.distance_to(end))
        return (center, half + abs(self._sway_amplitude))

    def pose_at(self, time_s: float) -> Pose:
        sway = self._sway_amplitude * math.sin(
            2.0 * math.pi * self._gait_hz * time_s + self._sway_phase
        )
        # start + velocity * t + lateral * sway, component by component
        # in the Vec3 operators' order: one Vec3 instead of four.
        start = self._start
        velocity = self._velocity
        lateral = self._lateral
        position = Vec3(
            start.x + velocity.x * time_s + lateral.x * sway,
            start.y + velocity.y * time_s + lateral.y * sway,
            start.z + velocity.z * time_s + lateral.z * sway,
        )
        wobble = self._wobble_amplitude * (
            0.7
            * math.sin(2.0 * math.pi * self._gait_hz * time_s + self._wobble_phase)
            # Slow wander: the user drifting the device over seconds.
            + 0.3 * math.sin(2.0 * math.pi * 0.2 * time_s + self._wander_phase)
        )
        heading = wrap_to_pi(self._travel_heading + wobble)
        return Pose(position, heading)
