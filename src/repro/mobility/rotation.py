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


class DeviceRotation(Trajectory):
    """In-place rotation at a constant angular rate, with optional tremor.

    Parameters
    ----------
    position:
        Fixed device location.
    omega_rad_per_s:
        Signed rotation rate (positive = CCW).  Paper: 120 deg/s.
    start_heading:
        Heading at t = 0.
    tremor_amplitude_rad:
        Small high-frequency hand tremor superimposed on the sweep.
    sweep_range_rad:
        When set, the device oscillates across ``+/- sweep_range/2``
        around the start heading (triangular sweep) instead of rotating
        without bound — matching how a person twists a handset back and
        forth rather than spinning forever.
    """

    def __init__(
        self,
        position: Vec3,
        omega_rad_per_s: float,
        start_heading: float = 0.0,
        tremor_amplitude_rad: float = math.radians(0.8),
        sweep_range_rad: Optional[float] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if omega_rad_per_s == 0.0:
            raise ValueError("rotation rate must be nonzero")
        if sweep_range_rad is not None and sweep_range_rad <= 0.0:
            raise ValueError(
                f"sweep range must be positive, got {sweep_range_rad!r}"
            )
        self._position = position
        self._omega = omega_rad_per_s
        self._start_heading = start_heading
        self._tremor_amplitude = tremor_amplitude_rad
        self._sweep_range = sweep_range_rad
        self._tremor_phase = (
            0.0 if rng is None else float(rng.uniform(0.0, 2.0 * math.pi))
        )

    def position_bound(self, horizon_s=None):
        # Sweep and tremor move the heading only; the device never
        # translates, so the bound is exact for any horizon.
        return (self._position, 0.0)

    def _sweep_offset(self, time_s: float) -> float:
        """Heading offset from the start heading at ``time_s``."""
        raw = self._omega * time_s
        if self._sweep_range is None:
            return raw
        # Triangular wave between -range/2 and +range/2.
        half = self._sweep_range / 2.0
        period = 2.0 * self._sweep_range / abs(self._omega)
        phase = math.fmod(abs(raw) / abs(self._omega), period) / period
        tri = 4.0 * half * (abs(phase - 0.5) - 0.25)
        return math.copysign(1.0, raw) * tri if raw != 0.0 else tri

    def pose_at(self, time_s: float) -> Pose:
        tremor = self._tremor_amplitude * math.sin(
            2.0 * math.pi * 9.0 * time_s + self._tremor_phase
        )
        heading = wrap_to_pi(
            self._start_heading + self._sweep_offset(time_s) + tremor
        )
        return Pose(self._position, heading)
