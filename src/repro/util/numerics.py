"""Generic numeric helpers: smoothing filters, running statistics, interpolation."""

from __future__ import annotations

import math
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple


def clamp(value: float, low: float, high: float) -> float:
    """Clamp ``value`` into the closed interval ``[low, high]``.

    >>> clamp(5.0, 0.0, 1.0)
    1.0
    """
    if low > high:
        raise ValueError(f"empty interval: low={low!r} > high={high!r}")
    return max(low, min(high, value))


def is_close(a: float, b: float, tol: float = 1e-9) -> bool:
    """Absolute-tolerance float comparison."""
    return abs(a - b) <= tol


def lin_interp(x: float, x0: float, x1: float, y0: float, y1: float) -> float:
    """Linearly interpolate ``y`` at ``x`` between ``(x0, y0)`` and ``(x1, y1)``.

    Extrapolates outside the interval; callers that need clamping should
    clamp ``x`` first.
    """
    if x1 == x0:
        return y0
    frac = (x - x0) / (x1 - x0)
    return y0 + frac * (y1 - y0)


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


class RunningStats:
    """Online mean/variance via Welford's algorithm.

    Numerically stable for long runs; used by the metrics recorder and
    analysis helpers to avoid storing full sample lists when only summary
    statistics are needed.
    """

    def __init__(self) -> None:
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        if self._count == 0:
            raise ValueError("no samples recorded")
        return self._mean

    @property
    def variance(self) -> float:
        """Sample variance (Bessel-corrected).  Zero with fewer than 2 samples."""
        if self._count == 0:
            raise ValueError("no samples recorded")
        if self._count < 2:
            return 0.0
        return self._m2 / (self._count - 1)

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    @property
    def min(self) -> float:
        if self._count == 0:
            raise ValueError("no samples recorded")
        return self._min

    @property
    def max(self) -> float:
        if self._count == 0:
            raise ValueError("no samples recorded")
        return self._max

    def push(self, sample: float) -> None:
        """Add one sample."""
        self._count += 1
        delta = sample - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (sample - self._mean)
        self._min = min(self._min, sample)
        self._max = max(self._max, sample)

    def extend(self, samples: Iterable[float]) -> None:
        """Add many samples."""
        for sample in samples:
            self.push(sample)

    def summary(self) -> dict:
        """Dictionary summary for reports; empty stats yield count=0 only."""
        if self._count == 0:
            return {"count": 0}
        return {
            "count": self._count,
            "mean": self.mean,
            "stddev": self.stddev,
            "min": self.min,
            "max": self.max,
        }


def quantile(sorted_values: List[float], q: float) -> float:
    """Linear-interpolation quantile of an already-sorted list.

    Matches numpy's default ("linear") method; implemented here so the
    hot analysis path has no array-conversion overhead for tiny lists.
    """
    if not sorted_values:
        raise ValueError("quantile of empty list")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q!r}")
    if len(sorted_values) == 1:
        return sorted_values[0]
    pos = q * (len(sorted_values) - 1)
    lo = int(math.floor(pos))
    hi = int(math.ceil(pos))
    # Equal neighbours return the sample itself: the lerp
    # x*(1-f) + x*f can land 1 ulp above every sample.
    if lo == hi or sorted_values[lo] == sorted_values[hi]:
        return sorted_values[lo]
    frac = pos - lo
    return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac
