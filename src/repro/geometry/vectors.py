"""Immutable 3-D vectors and derived quantities (distance, bearing).

A tiny hand-rolled vector type keeps the hot per-measurement geometry
path free of numpy array-allocation overhead; bulk math elsewhere uses
numpy directly.  :class:`Vec3` is tuple-backed (a ``NamedTuple``), so
building one costs a single tuple allocation.
"""

from __future__ import annotations

import math
from typing import NamedTuple


class Vec3(NamedTuple):
    """An immutable 3-D vector / point in world coordinates (meters).

    Tuple-backed: fields are read-only, equal vectors hash equal, and
    ``+``, ``-``, ``*`` and ``/`` are the vector operators, not tuple
    concatenation or repetition.
    """

    x: float
    y: float
    z: float = 0.0

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __mul__(self, scalar: float) -> "Vec3":
        return Vec3(self.x * scalar, self.y * scalar, self.z * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar: float) -> "Vec3":
        return Vec3(self.x / scalar, self.y / scalar, self.z / scalar)

    def __neg__(self) -> "Vec3":
        return Vec3(-self.x, -self.y, -self.z)

    def dot(self, other: "Vec3") -> float:
        """Dot product."""
        return self.x * other.x + self.y * other.y + self.z * other.z

    def norm(self) -> float:
        """Euclidean length."""
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def norm_xy(self) -> float:
        """Length of the horizontal (xy) projection."""
        return math.hypot(self.x, self.y)

    def normalized(self) -> "Vec3":
        """Unit vector in the same direction; raises on the zero vector."""
        length = self.norm()
        if length == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return self / length

    def distance_to(self, other: "Vec3") -> float:
        """Euclidean distance to another point."""
        return (self - other).norm()

    def azimuth(self) -> float:
        """Azimuth of this vector in the xy plane, CCW from +x, in (-pi, pi].

        Raises :class:`ValueError` when the horizontal projection is zero
        (azimuth undefined for purely vertical vectors).
        """
        if self.x == 0.0 and self.y == 0.0:
            raise ValueError("azimuth undefined for vector with zero xy projection")
        return math.atan2(self.y, self.x)

    @staticmethod
    def from_polar_xy(radius: float, azimuth: float, z: float = 0.0) -> "Vec3":
        """Build a vector from horizontal polar coordinates."""
        return Vec3(radius * math.cos(azimuth), radius * math.sin(azimuth), z)


def distance(a: Vec3, b: Vec3) -> float:
    """Euclidean distance between two points."""
    return a.distance_to(b)


def bearing_xy(src: Vec3, dst: Vec3) -> float:
    """World-frame azimuth of the line of sight from ``src`` to ``dst``.

    This is the direction a transmitter at ``src`` must point to face a
    receiver at ``dst``.  Raises :class:`ValueError` when the two points
    are horizontally coincident.
    """
    return (dst - src).azimuth()
