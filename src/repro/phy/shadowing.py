"""Log-normal shadowing with temporal correlation.

Shadow fading varies as the mobile moves through the local scattering
environment.  We model it per-link as a Gauss-Markov (Ornstein-Uhlenbeck)
process sampled on demand: correlation decays exponentially with the
*distance traveled* between samples (the classical Gudmundson model),
with an equivalent time constant used for rotation-only motion.

Sampling on demand keeps the channel lazy — only (time, position) pairs
the protocol actually measures are ever drawn — while preserving the
correct correlation structure along the sampled sequence.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np


class ShadowingProcess:
    """Per-link correlated log-normal shadowing.

    Parameters
    ----------
    sigma_db:
        Standard deviation of the shadowing in dB.  60 GHz LoS campaign
        fits report ~2-3 dB.
    decorrelation_m:
        Distance over which autocorrelation falls to 1/e (Gudmundson).
        Short at mm-wave: 1-2 m.
    rng:
        Dedicated random stream for this link.
    """

    def __init__(
        self,
        sigma_db: float,
        decorrelation_m: float,
        rng: np.random.Generator,
    ) -> None:
        if sigma_db < 0.0:
            raise ValueError(f"sigma must be non-negative, got {sigma_db!r}")
        if decorrelation_m <= 0.0:
            raise ValueError(
                f"decorrelation distance must be positive, got {decorrelation_m!r}"
            )
        self.sigma_db = sigma_db
        self.decorrelation_m = decorrelation_m
        self._rng = rng
        self._last_value_db: Optional[float] = None
        self._last_distance: Optional[float] = None

    def sample_db(self, traveled_m: float) -> float:
        """Shadowing value (dB) at cumulative traveled distance ``traveled_m``.

        ``traveled_m`` is the arc length of the mobile's trajectory, which
        must be non-decreasing across calls (the simulator samples time
        forward only).  Consumes one normal (none when sigma is 0).
        """
        return self.sample_repeat_db(traveled_m, 1)

    def sample_repeat_db(self, traveled_m: float, n: int) -> float:
        """The shadowing value at ``traveled_m``, consuming ``n`` calls' draws.

        Within an SSB burst every dwell shares one rx pose, so ``n``
        scalar :meth:`sample_db` calls at the same ``traveled_m`` all
        return the same value: calls 2..n see ``rho`` exactly 1 and an
        innovation sigma exactly 0.  This batch equivalent makes one
        ``standard_normal(n)`` call -- the stream consumption of those
        ``n`` calls -- and uses only its first normal as the innovation,
        so the value and the generator state match the scalar loop bit
        for bit.  A one-dwell sample draws a scalar
        ``standard_normal()``, which yields the same value and leaves
        the same stream state as ``standard_normal(1)[0]`` at a third of
        the cost.  The inputs are checked before anything is drawn.
        """
        if n < 1:
            raise ValueError(f"need at least one sample, got {n!r}")
        if self.sigma_db == 0.0:
            return 0.0
        last = self._last_value_db
        if last is not None:
            delta = traveled_m - self._last_distance
            if delta < -1e-9:
                raise ValueError(
                    f"traveled distance must be non-decreasing "
                    f"({traveled_m!r} < {self._last_distance!r})"
                )
            delta = max(0.0, delta)
            rho = math.exp(-delta / self.decorrelation_m)
            innovation_sigma = self.sigma_db * math.sqrt(max(0.0, 1.0 - rho * rho))
        rng = self._rng
        normal = rng.standard_normal() if n == 1 else float(rng.standard_normal(n)[0])
        # ``normal(0, s)`` is ``0.0 + s * z``; spelled out so a burst
        # needs one draw call.
        if last is None:
            value = 0.0 + self.sigma_db * normal
        else:
            value = rho * last + (0.0 + innovation_sigma * normal)
        self._last_value_db = value
        self._last_distance = traveled_m
        return value

    def reset(self) -> None:
        """Forget the process state (a fresh draw seeds the next sample)."""
        self._last_value_db = None
        self._last_distance = None
