"""Antenna beam patterns.

* :class:`GaussianBeamPattern` — the standard sectored-Gaussian
  approximation used throughout the mm-wave systems literature.  The
  mainlobe is Gaussian in dB (exactly -3 dB at half the nominal
  beamwidth) with a flat sidelobe floor.  It is fast, and its two
  parameters (beamwidth, peak gain) map directly onto the paper's
  20°/60° codebook descriptions.
* :class:`OmniPattern` — the idealized omnidirectional element.

Patterns are azimuth-only: the paper's scenarios (walk, rotation,
drive-by at fixed height) exercise horizontal beam management, and both
testbed arrays steer in azimuth.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

from repro.geometry.angles import wrap_to_pi, wrap_to_pi_array

#: ln(2), used by the Gaussian mainlobe shape constant.
_LN2 = math.log(2.0)

#: Default sidelobe level relative to the beam peak, dB.  Phased-array
#: prototypes of the class used in the paper's testbed have first
#: sidelobes 10-15 dB below peak; we use a conservative flat floor.
DEFAULT_SIDELOBE_REL_DB = -12.0

#: Gain of the idealized omni (single patch) element, dBi.
OMNI_GAIN_DBI = 0.0


def peak_gain_dbi_for_beamwidth(beamwidth_rad: float, efficiency: float = 0.8) -> float:
    """Peak gain (dBi) of a sector beam with the given azimuth HPBW.

    Uses the elliptical-aperture directivity approximation
    ``D = eta * 16 / (theta_az * theta_el)`` with the elevation beamwidth
    fixed at a phone-array-typical 60° (the paper's arrays steer only in
    azimuth).  For a 20° azimuth beam this yields ~19 dBi and for 60°
    ~14 dBi, consistent with 8- and 3-element 60 GHz modules.
    """
    if beamwidth_rad <= 0.0 or beamwidth_rad > 2.0 * math.pi:
        raise ValueError(f"beamwidth must be in (0, 2*pi], got {beamwidth_rad!r}")
    if not 0.0 < efficiency <= 1.0:
        raise ValueError(f"efficiency must be in (0, 1], got {efficiency!r}")
    theta_el = math.radians(60.0)
    directivity = efficiency * 16.0 / (beamwidth_rad * theta_el)
    # Never report less than omni: a beam covering the full circle is
    # just an omni element.
    return max(OMNI_GAIN_DBI, 10.0 * math.log10(directivity))


class AntennaPattern(ABC):
    """Gain as a function of azimuth offset from boresight."""

    @abstractmethod
    def gain_dbi(self, offset_rad: float) -> float:
        """Gain (dBi) at ``offset_rad`` radians off boresight.

        ``offset_rad`` may be any real angle; implementations wrap it.
        """

    @property
    @abstractmethod
    def peak_gain_dbi(self) -> float:
        """Boresight gain in dBi."""

    @property
    @abstractmethod
    def beamwidth_rad(self) -> float:
        """Half-power (3 dB) beamwidth in radians; ``2*pi`` for omni."""

    def gain_dbi_array(self, offsets_rad: np.ndarray) -> np.ndarray:
        """Vectorized gain over an array of offsets.

        The default evaluates :meth:`gain_dbi` per element (override for
        speed).  Contract for all implementations: the result has the
        input's shape, is float64 even for empty input, and each element
        is bit-identical to the scalar :meth:`gain_dbi` of the same
        offset — the batch burst-evaluation path relies on this to keep
        RSS traces byte-identical to the scalar path.
        """
        offsets = np.asarray(offsets_rad, dtype=float)
        gains = np.empty(offsets.shape, dtype=float)
        flat = gains.ravel()
        for i, offset in enumerate(offsets.ravel()):
            flat[i] = self.gain_dbi(float(offset))
        return gains


class GaussianBeamPattern(AntennaPattern):
    """Sectored-Gaussian mainlobe with a flat sidelobe floor.

    The mainlobe obeys ``G(d) = G0 - 12 * (d / bw)^2 * ... `` — concretely
    a Gaussian in the dB domain calibrated so that
    ``G(bw/2) = G0 - 3 dB`` exactly.  Outside the mainlobe region the
    pattern sits at ``G0 + sidelobe_rel_db`` (but never below an
    isotropic back-lobe floor of -10 dBi, matching measured 60 GHz
    module patterns).
    """

    def __init__(
        self,
        beamwidth_rad: float,
        peak_gain_dbi: float = None,
        sidelobe_rel_db: float = DEFAULT_SIDELOBE_REL_DB,
    ) -> None:
        if beamwidth_rad <= 0.0 or beamwidth_rad > 2.0 * math.pi:
            raise ValueError(
                f"beamwidth must be in (0, 2*pi], got {beamwidth_rad!r}"
            )
        if sidelobe_rel_db >= 0.0:
            raise ValueError(
                f"sidelobe level must be below peak (negative), got {sidelobe_rel_db!r}"
            )
        self._beamwidth = beamwidth_rad
        if peak_gain_dbi is None:
            peak_gain_dbi = peak_gain_dbi_for_beamwidth(beamwidth_rad)
        self._peak = peak_gain_dbi
        self._sidelobe_floor = max(self._peak + sidelobe_rel_db, -10.0)
        # dB-domain Gaussian: G(d) = G0 - 3 * (2d/bw)^2 gives exactly
        # -3 dB at d = bw/2.
        self._shape = 3.0 * (2.0 / beamwidth_rad) ** 2

    @property
    def peak_gain_dbi(self) -> float:
        return self._peak

    @property
    def beamwidth_rad(self) -> float:
        return self._beamwidth

    def gain_dbi(self, offset_rad: float) -> float:
        offset = abs(wrap_to_pi(offset_rad))
        mainlobe = self._peak - self._shape * offset * offset
        return max(mainlobe, self._sidelobe_floor)

    def gain_dbi_array(self, offsets_rad: np.ndarray) -> np.ndarray:
        # gain_dbi's operation sequence, in place on two buffers.
        offsets = wrap_to_pi_array(offsets_rad)
        np.abs(offsets, out=offsets)
        gains = offsets * self._shape
        gains *= offsets
        np.subtract(self._peak, gains, out=gains)
        np.maximum(gains, self._sidelobe_floor, out=gains)
        return gains

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GaussianBeamPattern(bw={math.degrees(self._beamwidth):.1f}deg, "
            f"peak={self._peak:.1f}dBi)"
        )


class OmniPattern(AntennaPattern):
    """Idealized omnidirectional element (flat gain over azimuth)."""

    def __init__(self, gain_dbi: float = OMNI_GAIN_DBI) -> None:
        self._gain = gain_dbi

    @property
    def peak_gain_dbi(self) -> float:
        return self._gain

    @property
    def beamwidth_rad(self) -> float:
        return 2.0 * math.pi

    def gain_dbi(self, offset_rad: float) -> float:
        return self._gain

    def gain_dbi_array(self, offsets_rad: np.ndarray) -> np.ndarray:
        return np.full(np.shape(offsets_rad), self._gain, dtype=float)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OmniPattern(gain={self._gain:.1f}dBi)"

