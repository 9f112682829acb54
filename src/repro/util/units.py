"""Unit conversions used throughout the link-budget and channel code.

All protocol-level quantities in the library are expressed in dB / dBm;
linear power is only used inside channel-model internals.  These helpers
are the single place where the two domains meet, so sign or base-10
mistakes cannot creep into individual modules.
"""

from __future__ import annotations

import math

#: Hertz in one megahertz.
MHZ = 1.0e6
#: Hertz in one gigahertz.
GHZ = 1.0e9

#: Boltzmann constant times the reference temperature (290 K), in dBm/Hz.
#: ``-174 dBm/Hz`` is the conventional thermal-noise floor density.
THERMAL_NOISE_DENSITY_DBM_PER_HZ = -174.0

#: Meters per second in one mile per hour.
_MPS_PER_MPH = 0.44704


def linear_to_db(value: float) -> float:
    """Convert a linear power ratio to decibels.

    Raises :class:`ValueError` for non-positive inputs: a zero or negative
    power has no dB representation, and silently returning ``-inf`` hides
    upstream bugs.
    """
    if value <= 0.0:
        raise ValueError(f"cannot convert non-positive ratio {value!r} to dB")
    return 10.0 * math.log10(value)


def thermal_noise_dbm(bandwidth_hz: float, noise_figure_db: float = 0.0) -> float:
    """Thermal noise power over ``bandwidth_hz`` including receiver noise figure.

    ``N = -174 dBm/Hz + 10 log10(B) + NF``.

    >>> round(thermal_noise_dbm(1e9), 1)
    -84.0
    """
    if bandwidth_hz <= 0.0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth_hz!r}")
    return (
        THERMAL_NOISE_DENSITY_DBM_PER_HZ
        + 10.0 * math.log10(bandwidth_hz)
        + noise_figure_db
    )


def mph_to_mps(speed_mph: float) -> float:
    """Convert miles per hour to meters per second.

    The paper's vehicular scenario is specified as 20 mph.
    """
    return speed_mph * _MPS_PER_MPH


def deg_per_s_to_rad_per_s(rate_deg_per_s: float) -> float:
    """Convert an angular rate from degrees/second to radians/second."""
    return math.radians(rate_deg_per_s)
