"""Generic numeric helpers: smoothing filters, quantiles, pairs."""

from __future__ import annotations

import math
from typing import Iterator, Optional, Sequence, Tuple


def pairwise(items: Sequence) -> Iterator[Tuple]:
    """Yield consecutive pairs ``(items[i], items[i+1])``.

    >>> list(pairwise([1, 2, 3]))
    [(1, 2), (2, 3)]
    """
    for i in range(len(items) - 1):
        yield items[i], items[i + 1]


class Ewma:
    """Exponentially-weighted moving average.

    Used to smooth raw RSS samples before the protocol compares them to
    adaptation thresholds; the paper's prototype applies similar L1
    filtering to measurement reports.

    Parameters
    ----------
    alpha:
        Smoothing factor in ``(0, 1]``.  ``alpha=1`` means no smoothing
        (the filter just returns the latest sample).
    """

    def __init__(self, alpha: float) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha!r}")
        self.alpha = alpha
        self._value: Optional[float] = None

    @property
    def value(self) -> Optional[float]:
        """Current filtered value, or ``None`` before the first update."""
        return self._value

    def update(self, sample: float) -> float:
        """Feed one sample and return the new filtered value."""
        if self._value is None:
            self._value = sample
        else:
            self._value = self.alpha * sample + (1.0 - self.alpha) * self._value
        return self._value

    def reset(self) -> None:
        """Forget all history; the next sample seeds the filter."""
        self._value = None


def quantile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile of an already-sorted sequence.

    Matches numpy's default ("linear") method with scalar element loads
    and one lerp, so a list and a sorted ndarray of the same values give
    the same Python ``float``.
    """
    if len(sorted_values) == 0:
        raise ValueError("quantile of empty list")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q!r}")
    if len(sorted_values) == 1:
        return float(sorted_values[0])
    pos = q * (len(sorted_values) - 1)
    lo = int(math.floor(pos))
    hi = int(math.ceil(pos))
    # Equal neighbours return the sample itself: the lerp
    # x*(1-f) + x*f can land 1 ulp above every sample.
    if lo == hi or sorted_values[lo] == sorted_values[hi]:
        return float(sorted_values[lo])
    frac = pos - lo
    low, high = float(sorted_values[lo]), float(sorted_values[hi])
    return low * (1.0 - frac) + high * frac
