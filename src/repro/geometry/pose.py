"""Rigid 2-D pose: position plus heading.

The mobile's beam codebook is defined in its *body frame*; when the user
rotates the device (the paper's 120 °/s rotation scenario), every beam's
world-frame boresight rotates with it.  :class:`Pose` is the bridge
between world-frame bearings (where the base station actually is) and
body-frame beam indices (what the mobile can select).
"""

from __future__ import annotations

from typing import NamedTuple

from repro.geometry.angles import wrap_to_pi
from repro.geometry.vectors import Vec3, bearing_xy


class Pose(NamedTuple):
    """Position and heading of a node.

    Tuple-backed (a ``NamedTuple``), so a pose costs one tuple
    allocation: fields are read-only and equal poses hash equal.

    Attributes
    ----------
    position:
        World-frame location in meters.
    heading:
        World-frame azimuth (radians, CCW from +x) that the node's body
        +x axis points toward.  Base stations normally have a fixed
        heading; mobiles get theirs from the mobility model.
    """

    position: Vec3
    heading: float = 0.0

    def world_to_body(self, world_azimuth: float) -> float:
        """Express a world-frame azimuth in this pose's body frame."""
        return wrap_to_pi(world_azimuth - self.heading)

    def bearing_to(self, target: Vec3) -> float:
        """World-frame azimuth from this pose's position toward ``target``."""
        return bearing_xy(self.position, target)

    def body_bearing_to(self, target: Vec3) -> float:
        """Body-frame azimuth toward ``target``.

        This is the boresight a body-frame beam would need to point
        exactly at ``target``.
        """
        return self.world_to_body(self.bearing_to(target))

    def distance_to(self, target: Vec3) -> float:
        """Euclidean distance from this pose's position to ``target``."""
        return self.position.distance_to(target)
