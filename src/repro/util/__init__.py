"""Utility helpers shared across the repro library.

This package holds small, dependency-free building blocks: unit
conversions between logarithmic and linear power domains
(:mod:`repro.util.units`) and generic numeric helpers
(:mod:`repro.util.numerics`).
"""

from repro.util.numerics import (
    Ewma,
    clamp,
    is_close,
    lin_interp,
    pairwise,
)
from repro.util.units import (
    GHZ,
    MHZ,
    db_to_linear,
    dbm_to_watts,
    deg_per_s_to_rad_per_s,
    kmh_to_mps,
    linear_to_db,
    mph_to_mps,
    mw_to_dbm,
    thermal_noise_dbm,
    watts_to_dbm,
)

__all__ = [
    "GHZ",
    "MHZ",
    "Ewma",
    "clamp",
    "db_to_linear",
    "dbm_to_watts",
    "deg_per_s_to_rad_per_s",
    "is_close",
    "kmh_to_mps",
    "lin_interp",
    "linear_to_db",
    "mph_to_mps",
    "mw_to_dbm",
    "pairwise",
    "thermal_noise_dbm",
    "watts_to_dbm",
]
