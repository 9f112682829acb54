"""Device-rotation trajectory.

The paper's rotation scenario spins the handset at ``omega = 120 deg/s``
in place.  Rotation is the hardest case for receive-beam tracking: every
body-frame beam's world direction sweeps at ``omega``, so a 20-degree
beam stays usable for only ``20/120 ~= 167 ms`` before an adjacent-beam
switch is required — while the geometry to the base stations does not
change at all.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.geometry.angles import wrap_to_pi
from repro.geometry.pose import Pose
from repro.geometry.vectors import Vec3
from repro.mobility.base import Trajectory

#: Peak hand-tremor heading offset (9 Hz) superimposed on the rotation.
TREMOR_AMPLITUDE_RAD = math.radians(0.8)


class DeviceRotation(Trajectory):
    """In-place rotation at a constant angular rate, with hand tremor.

    Parameters
    ----------
    position:
        Fixed device location.
    omega_rad_per_s:
        Signed rotation rate (positive = CCW).  Paper: 120 deg/s.
    start_heading:
        Heading at t = 0.
    rng:
        Source for the tremor's phase; ``None`` uses a zero phase.
    """

    def __init__(
        self,
        position: Vec3,
        omega_rad_per_s: float,
        start_heading: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if omega_rad_per_s == 0.0:
            raise ValueError("rotation rate must be nonzero")
        self._position = position
        self._omega = omega_rad_per_s
        self._start_heading = start_heading
        self._tremor_phase = (
            0.0 if rng is None else float(rng.uniform(0.0, 2.0 * math.pi))
        )

    def position_bound(self, horizon_s=None):
        # Rotation and tremor move the heading only; the device never
        # translates, so the bound is exact for any horizon.
        return (self._position, 0.0)

    def pose_at(self, time_s: float) -> Pose:
        tremor = TREMOR_AMPLITUDE_RAD * math.sin(
            2.0 * math.pi * 9.0 * time_s + self._tremor_phase
        )
        heading = wrap_to_pi(self._start_heading + self._omega * time_s + tremor)
        return Pose(self._position, heading)
