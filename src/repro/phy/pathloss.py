"""Large-scale path-loss models for the 60 GHz band.

The close-in (CI) free-space-reference model is the standard mm-wave
measurement-campaign fit::

    PL(d) = FSPL(d0=1m, f) + 10 * n * log10(d / 1m)

with path-loss exponent ``n ~= 2.0-2.1`` for LoS and ``~3.2`` NLoS at
60 GHz.  The paper's experiments are line-of-sight at ~10 m, with NLoS
excursions caused by blockage, which we model separately
(:mod:`repro.phy.blockage`) as a time-varying excess loss.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Optional

#: Speed of light, m/s.
SPEED_OF_LIGHT = 299_792_458.0


def fspl_db(distance_m: float, frequency_hz: float) -> float:
    """Free-space path loss (Friis), dB.

    >>> round(fspl_db(1.0, 60e9), 1)
    68.0
    """
    if distance_m <= 0.0:
        raise ValueError(f"distance must be positive, got {distance_m!r}")
    if frequency_hz <= 0.0:
        raise ValueError(f"frequency must be positive, got {frequency_hz!r}")
    wavelength = SPEED_OF_LIGHT / frequency_hz
    return 20.0 * math.log10(4.0 * math.pi * distance_m / wavelength)


class PathLossModel(ABC):
    """Distance-dependent mean path loss."""

    @abstractmethod
    def path_loss_db(self, distance_m: float) -> float:
        """Mean path loss in dB at ``distance_m`` meters."""

    def max_distance_for_loss(self, loss_db: float) -> Optional[float]:
        """Largest distance whose mean loss is **at most** ``loss_db``.

        The inverse used by the spatial cell index to turn a link-budget
        margin into a guard radius: every station farther than this
        provably attenuates below the budget.  Must be conservative —
        ``path_loss_db(d) >= loss_db`` for every ``d`` beyond the
        returned distance.  The default returns ``None`` (inverse
        unknown), which disables spatial pruning for deployments using
        the model; monotone models should override.
        """
        return None


class CloseInPathLoss(PathLossModel):
    """CI model: 1 m free-space intercept plus a fitted distance exponent.

    Parameters
    ----------
    frequency_hz:
        Carrier frequency (60 GHz for the paper's testbed).
    exponent:
        Path-loss exponent ``n``.  2.0 = free space; 60 GHz LoS campaigns
        report 2.0-2.1, NLoS ~3.2.
    min_distance_m:
        Distances below this are clamped; the CI model is not defined
        inside the reference distance and nodes never get that close in
        the paper's scenarios.
    """

    def __init__(
        self,
        frequency_hz: float = 60.0e9,
        exponent: float = 2.1,
        min_distance_m: float = 1.0,
    ) -> None:
        if exponent <= 0.0:
            raise ValueError(f"exponent must be positive, got {exponent!r}")
        if min_distance_m <= 0.0:
            raise ValueError(f"min_distance must be positive, got {min_distance_m!r}")
        self.frequency_hz = frequency_hz
        self.exponent = exponent
        self.min_distance_m = min_distance_m
        self._intercept_db = fspl_db(1.0, frequency_hz)

    def path_loss_db(self, distance_m: float) -> float:
        distance = max(distance_m, self.min_distance_m)
        return self._intercept_db + 10.0 * self.exponent * math.log10(distance)

    def max_distance_for_loss(self, loss_db: float) -> Optional[float]:
        # Loss is monotone non-decreasing in distance (flat inside the
        # clamp), so the exact inverse of the log-distance line is a
        # valid conservative bound; below-intercept budgets collapse to
        # the clamp distance.
        distance = 10.0 ** ((loss_db - self._intercept_db) / (10.0 * self.exponent))
        return max(distance, self.min_distance_m)

