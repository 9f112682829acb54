"""Utility helpers shared across the repro library.

This package holds small, dependency-free building blocks: dB, noise
and speed conversions (:mod:`repro.util.units`), generic numeric
helpers (:mod:`repro.util.numerics`) and the declared ``REPRO_*``
environment switches (:mod:`repro.util.switches`).
"""

from repro.util.numerics import Ewma, pairwise
from repro.util.units import (
    GHZ,
    MHZ,
    deg_per_s_to_rad_per_s,
    linear_to_db,
    mph_to_mps,
    thermal_noise_dbm,
)

__all__ = [
    "GHZ",
    "MHZ",
    "Ewma",
    "deg_per_s_to_rad_per_s",
    "linear_to_db",
    "mph_to_mps",
    "pairwise",
    "thermal_noise_dbm",
]
