"""Property tests for the streaming metric structures in analysis.stats.

The sharded fleet path folds per-user metrics into
:class:`~repro.analysis.stats.QuantileReservoir` /
:class:`~repro.analysis.stats.StreamingMoments` per shard and merges
the per-shard structures on the driver, so the contracts that matter
are merge laws (commutativity, associativity-within-tolerance) and
agreement with the exact batch statistics of :mod:`repro.analysis.stats`
— including on adversarial distributions (constants, duplicates,
extreme dynamic range, sorted and anti-sorted inputs).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import (
    QuantileReservoir,
    StreamingMoments,
    empirical_cdf,
    summarize,
)

# Values with duplicates, huge dynamic range, negatives and zeros —
# but no NaN/inf (metrics are finite by construction).
_values = st.lists(
    st.one_of(
        st.floats(
            min_value=-1e9, max_value=1e9,
            allow_nan=False, allow_infinity=False,
        ),
        st.sampled_from([0.0, 1.0, -1.0, 1e-12, 1e12, 3.5]),
    ),
    min_size=0,
    max_size=400,
)


def _rank_error(reservoir, values, q):
    """Normalized rank distance of the estimate from true quantile q.

    A value with duplicates occupies a *range* of ranks; the error is
    the distance from q to that range (zero when q falls inside it), so
    constant or heavily-tied inputs are not spuriously penalised.
    """
    ordered = np.sort(np.asarray(values))
    n = len(ordered)
    estimate = reservoir.quantile(q)
    lo = np.searchsorted(ordered, estimate, side="left") / n
    hi = np.searchsorted(ordered, estimate, side="right") / n
    if lo <= q <= hi:
        return 0.0
    return min(abs(q - lo), abs(q - hi))


# ---------------------------------------------------------------- exactness
@settings(max_examples=200, deadline=None)
@given(_values)
def test_uncompacted_reservoir_matches_exact_stats(values):
    """While exact, quantiles and CDF are bit-identical to the batch path."""
    reservoir = QuantileReservoir(capacity=None)
    reservoir.extend(values)
    assert reservoir.exact
    assert reservoir.count == len(values)
    if not values:
        return
    expected = summarize(values)
    assert reservoir.quantile(0.1) == expected["p10"]
    assert reservoir.quantile(0.5) == expected["p50"]
    assert reservoir.quantile(0.9) == expected["p90"]
    xs, ps = reservoir.cdf()
    exp_xs, exp_ps = empirical_cdf(values)
    assert list(xs) == list(exp_xs)
    assert list(ps) == list(exp_ps)


@settings(max_examples=100, deadline=None)
@given(_values, _values)
def test_merge_commutes_exactly(a, b):
    """merge(A, B) and merge(B, A) hold identical state (canonical form)."""
    left = QuantileReservoir(capacity=8)
    left.extend(a)
    other = QuantileReservoir(capacity=8)
    other.extend(b)
    right = QuantileReservoir(capacity=8)
    right.extend(b)
    other2 = QuantileReservoir(capacity=8)
    other2.extend(a)
    left.merge(other)
    right.merge(other2)
    assert left.to_dict() == right.to_dict()
    # Moments commute too (floating point: merge order identical sums).
    ma, mb = StreamingMoments(), StreamingMoments()
    ma.extend(a)
    mb.extend(b)
    mba, mbb = StreamingMoments(), StreamingMoments()
    mba.extend(b)
    mbb.extend(a)
    ma.merge(mb)
    mba.merge(mbb)
    assert ma.count == mba.count
    assert ma.min == mba.min and ma.max == mba.max
    if ma.count:
        assert math.isclose(ma.mean, mba.mean, rel_tol=1e-9, abs_tol=1e-6)


def test_equal_neighbours_quantile_is_the_sample():
    """Hypothesis falsifying example for the associativity test below:
    with both interpolation neighbours equal, the quantile is that
    sample exactly, not the 1-ulp-high lerp ``x*(1-f) + x*f``."""
    from repro.util.numerics import quantile

    assert summarize([0.01, 0.01])["p10"] == 0.01
    assert quantile([0.01, 0.01], 0.1) == 0.01
    reservoir = QuantileReservoir(capacity=32)
    reservoir.extend([0.01, 0.01])
    assert reservoir.quantile(0.1) == 0.01
    assert _rank_error(reservoir, [0.01, 0.01], 0.1) == 0.0


@settings(max_examples=60, deadline=None)
@given(_values, _values, _values)
def test_merge_associativity_within_rank_tolerance(a, b, c):
    """(A+B)+C and A+(B+C) agree with exact quantiles within rank error.

    Compaction order may differ between groupings, so the reservoirs
    need not be bitwise equal — but both must stay within the
    documented rank-error envelope of the true quantiles.
    """
    values = list(a) + list(b) + list(c)
    if not values:
        return
    capacity = 32

    def build(*parts):
        out = QuantileReservoir(capacity=capacity)
        for part in parts:
            chunk = QuantileReservoir(capacity=capacity)
            chunk.extend(part)
            out.merge(chunk)
        return out

    left = build(a, b)
    tail = QuantileReservoir(capacity=capacity)
    tail.extend(c)
    left.merge(tail)

    right_tail = build(b, c)
    right = QuantileReservoir(capacity=capacity)
    right.extend(a)
    right.merge(right_tail)

    n = len(values)
    assert left.count == right.count == n
    # Documented envelope: O(count * log2(count/capacity) / capacity);
    # generous constant keeps the test about contract, not tuning.
    levels = max(1.0, math.log2(max(2.0, n / capacity)))
    tolerance = min(0.5, 3.0 * levels / capacity) + 1.0 / n
    for q in (0.1, 0.5, 0.9):
        assert _rank_error(left, values, q) <= tolerance
        assert _rank_error(right, values, q) <= tolerance


# ------------------------------------------------------------- adversarial
@pytest.mark.parametrize(
    "values",
    [
        [1.0] * 5000,                                   # all duplicates
        list(np.linspace(0.0, 1.0, 5000)),              # sorted
        list(np.linspace(1.0, 0.0, 5000)),              # anti-sorted
        list(np.geomspace(1e-9, 1e9, 5000)),            # huge dynamic range
        [0.0] * 2500 + [1e9] * 2500,                    # bimodal extremes
        list(np.sin(np.arange(5000) * 12.9898) * 1e4),  # oscillating
    ],
    ids=["dup", "sorted", "antisorted", "geomspace", "bimodal", "oscillating"],
)
def test_compacted_quantiles_on_adversarial_distributions(values):
    """Bounded reservoirs track exact quantiles on hostile inputs."""
    capacity = 256
    reservoir = QuantileReservoir(capacity=capacity)
    reservoir.extend(values)
    assert not reservoir.exact or len(values) <= capacity
    n = len(values)
    levels = max(1.0, math.log2(max(2.0, n / capacity)))
    tolerance = 3.0 * levels / capacity + 1.0 / n
    for q in (0.1, 0.25, 0.5, 0.75, 0.9):
        assert _rank_error(reservoir, values, q) <= tolerance


def test_sharded_merge_matches_exact_quantiles():
    """K-way shard merge (the fleet pattern) stays within tolerance."""
    rng = np.random.default_rng(7)
    values = rng.lognormal(mean=0.0, sigma=2.0, size=60_000)
    capacity = 512
    shards = []
    for part in np.array_split(values, 16):
        reservoir = QuantileReservoir(capacity=capacity)
        reservoir.extend(part.tolist())
        shards.append(reservoir)
    merged = shards[0]
    for shard in shards[1:]:
        merged.merge(shard)
    assert merged.count == len(values)
    n = len(values)
    levels = max(1.0, math.log2(n / capacity))
    tolerance = 3.0 * levels / capacity
    for q in (0.1, 0.5, 0.9, 0.99):
        assert _rank_error(merged, values.tolist(), q) <= tolerance


@settings(max_examples=100, deadline=None)
@given(_values, _values)
def test_streaming_moments_match_batch_summary(a, b):
    """Welford/Chan moments agree with the exact batch summary."""
    values = list(a) + list(b)
    left, right = StreamingMoments(), StreamingMoments()
    left.extend(a)
    right.extend(b)
    left.merge(right)
    assert left.count == len(values)
    if not values:
        return
    exact = summarize(values)
    assert left.min == exact["min"] and left.max == exact["max"]
    scale = max(1.0, abs(exact["mean"]))
    assert math.isclose(left.mean, exact["mean"], rel_tol=1e-9, abs_tol=1e-9 * scale)
    if len(values) >= 2:
        spread = max(1.0, exact["stddev"])
        assert math.isclose(
            left.stddev, exact["stddev"], rel_tol=1e-6, abs_tol=1e-6 * spread
        )


def test_reservoir_round_trip_and_validation():
    reservoir = QuantileReservoir(capacity=16)
    reservoir.extend(float(x) for x in range(100))
    clone = QuantileReservoir.from_dict(reservoir.to_dict())
    assert clone.to_dict() == reservoir.to_dict()
    assert clone.count == 100
    with pytest.raises(Exception):
        QuantileReservoir(capacity=4)  # below minimum
    other = QuantileReservoir(capacity=32)
    with pytest.raises(Exception):
        reservoir.merge(other)  # mismatched capacity
