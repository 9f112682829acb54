"""Azimuth angle arithmetic on the circle.

Beam boresights, mobile headings, and bearings all live on the circle, so
naive subtraction produces wrong distances across the ±π seam.  Every
angle comparison in the library goes through these helpers.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def wrap_to_pi(angle: float) -> float:
    """Wrap an angle into ``(-pi, pi]``.

    >>> wrap_to_pi(math.pi * 3)  # doctest: +ELLIPSIS
    3.14159...
    """
    wrapped = math.fmod(angle + math.pi, TWO_PI)
    if wrapped <= 0.0:
        wrapped += TWO_PI
    return wrapped - math.pi


def wrap_to_pi_array(angles) -> np.ndarray:
    """Vectorized :func:`wrap_to_pi`, bit-identical to the scalar per element.

    The batch evaluation path promises byte-identical RSS traces versus
    the scalar path, so this mirrors the scalar's exact operation
    sequence (``fmod``, conditional period add, subtract) rather than
    using ``np.mod``, whose result differs at the ``±pi`` seam.
    Preserves the input shape.  Works in place on one private copy: at
    burst sizes the temporaries cost more than the arithmetic.
    """
    wrapped = np.array(angles, dtype=float)
    wrapped += math.pi
    np.fmod(wrapped, TWO_PI, out=wrapped)
    wrapped[wrapped <= 0.0] += TWO_PI
    wrapped -= math.pi
    return wrapped


def signed_angle_delta(target: float, source: float) -> float:
    """Smallest signed rotation taking ``source`` onto ``target``.

    Positive means counter-clockwise.  Result is in ``(-pi, pi]``.
    """
    return wrap_to_pi(target - source)


def angular_distance(a: float, b: float) -> float:
    """Unsigned circular distance between two angles, in ``[0, pi]``."""
    return abs(signed_angle_delta(a, b))

