"""Small-scale fading for directional mm-wave links.

Beamformed 60 GHz LoS links are strongly Rician: the resolvable LoS ray
dominates and the residual multipath inside the beam contributes a small
diffuse component.  We model the per-dwell envelope power as a Rician
draw with configurable K-factor; NLoS (fully blocked) dwells degrade to
Rayleigh (K = 0).

Draws are i.i.d. per dwell: at 60 GHz even pedestrian motion decorrelates
small-scale fading within one SSB period (coherence time ~lambda/(2v)
~= 1.8 ms at 1.4 m/s), so consecutive 20 ms-spaced measurements see
independent fades.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.util.units import linear_to_db


class RicianFading:
    """Per-sample Rician envelope-power fading in dB about the mean.

    Parameters
    ----------
    k_factor_db:
        Ratio of dominant-ray power to diffuse power, dB.  Beamformed
        60 GHz LoS measurements report 8-15 dB; ``k_factor_db=None``
        disables fading entirely (deterministic channel for unit tests).
    """

    def __init__(self, k_factor_db: float, rng: np.random.Generator) -> None:
        self.k_factor_db = k_factor_db
        self._rng = rng
        self._los_amplitude, self._diffuse_sigma = rician_amplitudes(k_factor_db)

    def sample_db(self) -> float:
        """One envelope-power fade in dB (0 dB mean in the linear domain)."""
        in_phase = self._los_amplitude + self._diffuse_sigma * self._rng.standard_normal()
        quadrature = self._diffuse_sigma * self._rng.standard_normal()
        power = in_phase * in_phase + quadrature * quadrature
        # power is almost surely positive; clamp defensively against a
        # pathological double-underflow.
        return linear_to_db(max(power, 1e-12))

    def sample_db_array(self, n: int) -> np.ndarray:
        """``n`` fades drawn in the same stream order as ``n`` scalar calls.

        One ``standard_normal(2n)`` call, de-interleaved into I/Q exactly
        as the per-call pairs of :meth:`sample_db` would consume them, so
        the generator state after this call is identical to the state
        after ``n`` scalar calls and each fade is bit-identical to its
        scalar counterpart.  The burst-evaluation paths of
        :class:`repro.phy.channel.Channel` rely on both properties.
        """
        if n < 0:
            raise ValueError(f"need a non-negative draw count, got {n!r}")
        return rician_fades_db(
            self._rng.standard_normal(2 * n),
            self._los_amplitude,
            self._diffuse_sigma,
        )

    def draw_into(self, out: np.ndarray) -> None:
        """Fill ``out`` (length ``2n``) with the I/Q normals of ``n`` fades.

        The stream consumption of :meth:`sample_db_array`; convert with
        :func:`rician_fades_db`.  Lets a caller gather many links' draws
        into one buffer and convert them in a single pass.
        """
        self._rng.standard_normal(out=out)


def rician_amplitudes(k_factor_db: float) -> Tuple[float, float]:
    """``(los_amplitude, diffuse_sigma)`` of a unit-mean-power Rician fade.

    Mean power of the Rician envelope is (K+1) * sigma^2 * ... ; we
    normalize so E[power] = 1, i.e. 0 dB mean.
    """
    k = 10.0 ** (k_factor_db / 10.0)
    return math.sqrt(k / (k + 1.0)), math.sqrt(1.0 / (2.0 * (k + 1.0)))


def rician_fades_db(
    draws: np.ndarray, los_amplitude: float, diffuse_sigma: float
) -> np.ndarray:
    """Fades (dB) of interleaved I/Q standard normals along the last axis.

    A last axis of ``2n`` normals yields ``n`` fades, each bit-identical
    to :meth:`RicianFading.sample_db` fed the same pair.  Works on a
    single burst or a whole ``(rows, 2 * dwells)`` tick buffer.
    """
    # sample_db's operation sequence, in place on two buffers.
    power = draws[..., 0::2] * diffuse_sigma
    power += los_amplitude
    power *= power
    quadrature = draws[..., 1::2] * diffuse_sigma
    quadrature *= quadrature
    power += quadrature
    np.maximum(power, 1e-12, out=power)
    # math.log10 per element (inlined linear_to_db): np.log10 differs
    # from the scalar path by 1 ULP on some inputs, which would break
    # the byte-identical trace contract.
    fades = np.fromiter(map(math.log10, power.ravel().tolist()), float, power.size)
    fades *= 10.0
    return fades.reshape(power.shape)


class NoFading:
    """Deterministic stand-in with the same interface (0 dB always).

    Draws nothing, so scalar and batch calls are trivially
    stream-equivalent.
    """

    k_factor_db = math.inf

    def sample_db(self) -> float:
        return 0.0

    def sample_db_array(self, n: int) -> np.ndarray:
        if n < 0:
            raise ValueError(f"need a non-negative draw count, got {n!r}")
        return np.zeros(n, dtype=float)
