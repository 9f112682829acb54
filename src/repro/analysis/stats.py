"""Statistical helpers for experiment results.

The CDF/summary helpers are numpy-vectorized: population-scale fleet
runs push 10^5+ samples through them per query, which the former pure
Python loops handled in O(n) interpreted steps.  The sort runs in
numpy and quantiles go through :func:`repro.util.numerics.quantile`
on the sorted array (element loads, one scalar lerp), so they are
bit-identical to the pre-vectorization outputs; mean/stddev use
numpy's pairwise summation, which can differ from the former
sequential Python sum in the last ulp (and is at least as accurate).
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.util.numerics import quantile


def _as_array(values: Sequence[float]) -> np.ndarray:
    """Sample input (list, tuple or ndarray) as a 1-D float64 array."""
    array = np.asarray(values, dtype=float)
    if array.ndim != 1:
        raise ValueError(f"need a 1-D sample, got shape {array.shape}")
    return array


def empirical_cdf(values: Sequence[float]) -> Tuple[List[float], List[float]]:
    """Empirical CDF of a sample.

    Returns ``(xs, ps)`` where ``ps[i]`` is the fraction of samples
    ``<= xs[i]`` — the series Fig. 2c plots.  Vectorized: one numpy
    sort + one arange instead of O(n) Python-level steps.
    """
    array = _as_array(values)
    n = array.shape[0]
    if n == 0:
        raise ValueError("empirical CDF of empty sample")
    xs = np.sort(array)
    ps = np.arange(1, n + 1, dtype=float) / n
    return xs.tolist(), ps.tolist()


def cdf_at(values: Sequence[float], x: float) -> float:
    """Fraction of samples ``<= x`` (one vectorized comparison)."""
    array = _as_array(values)
    if array.shape[0] == 0:
        raise ValueError("CDF of empty sample")
    return int(np.count_nonzero(array <= x)) / array.shape[0]


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Summary dict: count, mean, p10/p50/p90, min, max, stddev.

    Sorting and the moment reductions run in numpy (pairwise summation —
    at least as accurate as the former sequential Python sum); quantiles
    keep the exact scalar lerp of the previous implementation.
    """
    array = _as_array(values)
    n = array.shape[0]
    if n == 0:
        return {"count": 0}
    ordered = np.sort(array)
    mean = float(np.sum(ordered)) / n
    variance = float(np.sum((ordered - mean) ** 2)) / (n - 1) if n > 1 else 0.0
    return {
        "count": n,
        "mean": mean,
        "stddev": math.sqrt(variance),
        "min": float(ordered[0]),
        "p10": quantile(ordered, 0.10),
        "p50": quantile(ordered, 0.50),
        "p90": quantile(ordered, 0.90),
        "max": float(ordered[-1]),
    }


class StreamingMoments:
    """Mergeable running moments: count, mean, M2, min, max.

    The streaming counterpart of :func:`summarize`'s moment fields.
    ``count``/``min``/``max`` are exact; ``mean``/``stddev`` use
    Welford/Chan updates, so they can differ from the batch numpy
    reduction in the last ulp — which is why exact-mode consumers (see
    :class:`QuantileReservoir.exact`) recompute moments from the
    retained sample instead of reading them here.

    Merging is exact in the algebraic sense (the result depends only on
    the union of the two samples' sufficient statistics), making
    per-shard moments foldable in any grouping.
    """

    __slots__ = ("count", "mean", "m2", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def add(self, value: float) -> None:
        value = float(value)
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (value - self.mean)
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def extend(self, values: Sequence[float]) -> None:
        for value in values:
            self.add(value)

    def merge(self, other: "StreamingMoments") -> None:
        """Fold another accumulator in (Chan's parallel update)."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self.mean = other.mean
            self.m2 = other.m2
            self.min = other.min
            self.max = other.max
            return
        total = self.count + other.count
        delta = other.mean - self.mean
        self.m2 = (
            self.m2
            + other.m2
            + delta * delta * self.count * other.count / total
        )
        self.mean += delta * other.count / total
        self.count = total
        if other.min is not None and other.min < self.min:
            self.min = other.min
        if other.max is not None and other.max > self.max:
            self.max = other.max

    @property
    def stddev(self) -> float:
        """Sample standard deviation (n - 1 denominator), 0.0 for n < 2."""
        if self.count < 2:
            return 0.0
        return math.sqrt(self.m2 / (self.count - 1))

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "mean": self.mean,
            "m2": self.m2,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_dict(cls, record: Mapping) -> "StreamingMoments":
        moments = cls()
        moments.count = int(record["count"])
        moments.mean = float(record["mean"])
        moments.m2 = float(record["m2"])
        moments.min = None if record["min"] is None else float(record["min"])
        moments.max = None if record["max"] is None else float(record["max"])
        return moments


class QuantileReservoir:
    """Deterministic fixed-size mergeable quantile sketch.

    A multi-level compaction sketch (KLL-style, but with deterministic
    odd-index promotion instead of random coin flips — reproducibility
    is a repo-wide contract).  Level ``i`` holds items of weight
    ``2**i``; when a level exceeds ``capacity`` items it is sorted and
    the odd-index half is promoted one level up.

    Contract (relied on by the fleet shard runner and pinned by
    ``tests/test_reservoir.py``):

    * **Exact under capacity.**  While ``count <= capacity`` no
      compaction has happened, :attr:`exact` is true, and
      :meth:`quantile` / :meth:`cdf` reproduce :func:`summarize` /
      :func:`empirical_cdf` on the retained sample *bit for bit* — this
      is what keeps small-N sharded artifacts byte-identical to
      unsharded runs.  ``capacity=None`` never compacts (unbounded
      exact retention).
    * **Merge is exactly commutative.**  The merged state is a pure
      function of the two operands' per-level multisets, so
      ``merge(a, b) == merge(b, a)`` byte-for-byte.
    * **Merge is associative up to rank error.**  Different groupings
      may compact at different moments; results agree within the rank
      error bound below (the property tests pin this).
    * **Bounded error and size.**  Quantile rank error is
      ``O(count * log2(count / capacity) / capacity)`` — under 0.1% of
      ranks at ``count = 10**6`` with the default capacity — and memory
      is ``O(capacity * log2(count / capacity))`` items regardless of
      ``count``.
    """

    DEFAULT_CAPACITY = 4096

    __slots__ = ("capacity", "count", "_levels")

    def __init__(self, capacity: Optional[int] = DEFAULT_CAPACITY) -> None:
        if capacity is not None and capacity < 8:
            raise ValueError(f"capacity must be >= 8 or None, got {capacity!r}")
        self.capacity = capacity
        self.count = 0
        self._levels: List[List[float]] = [[]]

    # ------------------------------------------------------------ ingestion
    def add(self, value: float) -> None:
        self._levels[0].append(float(value))
        self.count += 1
        self._compact()

    def extend(self, values: Sequence[float]) -> None:
        level0 = self._levels[0]
        added = 0
        for value in values:
            level0.append(float(value))
            added += 1
        self.count += added
        self._compact()

    def _compact(self) -> None:
        if self.capacity is None:
            return
        index = 0
        while index < len(self._levels):
            level = self._levels[index]
            if len(level) <= self.capacity:
                index += 1
                continue
            level.sort()
            promoted = level[1::2]
            if index + 1 == len(self._levels):
                self._levels.append([])
            self._levels[index + 1].extend(promoted)
            self._levels[index] = []
            index += 1

    # -------------------------------------------------------------- queries
    @property
    def exact(self) -> bool:
        """True while every ingested sample is still retained at weight 1."""
        return len(self._levels) == 1

    def values(self) -> List[float]:
        """The retained sample, sorted; only meaningful when :attr:`exact`."""
        if not self.exact:
            raise ValueError("reservoir has compacted; exact sample is gone")
        return sorted(self._levels[0])

    def _weighted(self) -> Tuple[np.ndarray, np.ndarray]:
        pairs = sorted(
            (value, 1 << level_index)
            for level_index, level in enumerate(self._levels)
            for value in level
        )
        values = np.asarray([pair[0] for pair in pairs], dtype=float)
        weights = np.asarray([pair[1] for pair in pairs], dtype=float)
        return values, weights

    def quantile(self, q: float) -> float:
        """Quantile estimate; bit-identical to :func:`summarize`'s exact
        lerp while :attr:`exact`, weighted type-1 selection after."""
        if self.count == 0:
            raise ValueError("quantile of empty reservoir")
        if self.exact:
            return quantile(self.values(), q)
        values, weights = self._weighted()
        cumulative = np.cumsum(weights)
        position = min(max(q, 0.0), 1.0) * cumulative[-1]
        index = int(np.searchsorted(cumulative, position, side="left"))
        return float(values[min(index, values.shape[0] - 1)])

    def cdf(self) -> Tuple[List[float], List[float]]:
        """``(xs, ps)``; identical to :func:`empirical_cdf` while exact,
        the weighted step function of the sketch after compaction."""
        if self.count == 0:
            raise ValueError("empirical CDF of empty sample")
        if self.exact:
            return empirical_cdf(self.values())
        values, weights = self._weighted()
        cumulative = np.cumsum(weights)
        ps = cumulative / cumulative[-1]
        return values.tolist(), ps.tolist()

    # ---------------------------------------------------------------- merge
    def merge(self, other: "QuantileReservoir") -> None:
        """Fold another reservoir in (per-level multiset union + compact).

        Operands must share a capacity; the result depends only on the
        union of the per-level multisets (exactly commutative).
        """
        if other.capacity != self.capacity:
            raise ValueError(
                f"cannot merge reservoirs of capacity "
                f"{other.capacity!r} into {self.capacity!r}"
            )
        while len(self._levels) < len(other._levels):
            self._levels.append([])
        for level_index, level in enumerate(other._levels):
            self._levels[level_index].extend(level)
        self.count += other.count
        self._compact()

    # -------------------------------------------------------- serialization
    def to_dict(self) -> dict:
        """JSON-safe state; levels are sorted so the encoding is
        canonical (a pure function of the ingested multisets)."""
        return {
            "capacity": self.capacity,
            "count": self.count,
            "levels": [sorted(level) for level in self._levels],
        }

    @classmethod
    def from_dict(cls, record: Mapping) -> "QuantileReservoir":
        reservoir = cls(record["capacity"])
        reservoir.count = int(record["count"])
        reservoir._levels = [
            [float(value) for value in level] for level in record["levels"]
        ]
        if not reservoir._levels:
            reservoir._levels = [[]]
        return reservoir


def success_rate(successes: int, trials: int) -> float:
    """Fraction in [0, 1]; raises on zero trials."""
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials!r}")
    if not 0 <= successes <= trials:
        raise ValueError(
            f"successes {successes!r} out of range for {trials!r} trials"
        )
    return successes / trials


def wilson_interval(successes: int, trials: int) -> Tuple[float, float]:
    """95% Wilson score interval for a binomial proportion.

    Better behaved than the normal approximation at the extreme success
    rates the Fig. 2a panels produce (narrow ~1.0, omni ~0.1).
    """
    z = 1.96
    p = success_rate(successes, trials)
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (
        z
        * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))
        / denom
    )
    return max(0.0, center - half), min(1.0, center + half)
