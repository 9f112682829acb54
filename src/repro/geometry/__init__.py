"""Geometry primitives: 3-D vectors, azimuth angle math, and rigid poses.

All angles in this package (and throughout the library) are **radians**.
Azimuth is measured counter-clockwise from the world +x axis in the
horizontal (xy) plane, which is the plane mm-wave beam steering operates
in for the paper's scenarios.
"""

from repro.geometry.angles import (
    TWO_PI,
    angular_distance,
    signed_angle_delta,
    wrap_to_pi,
)
from repro.geometry.pose import Pose
from repro.geometry.vectors import Vec3, bearing_xy, distance

__all__ = [
    "TWO_PI",
    "Pose",
    "Vec3",
    "angular_distance",
    "bearing_xy",
    "distance",
    "signed_angle_delta",
    "wrap_to_pi",
]
