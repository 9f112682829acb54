"""The burst detection rule of both link-engine paths, against its oracle.

``LinkEngine.measure_burst`` and ``measure_burst_multi`` pick the first
``argmax`` dwell of a burst and report it iff its SNR clears the
threshold.  The oracle is the rule it replaced: keep the dwells whose
SNR clears the threshold, then take the first ``argmax`` among them.
The two agree because subtracting the noise floor is monotone and no
RSS row holds NaN.  A stand-in channel hands both paths hypothesis RSS
grids -- exact ties, ``-inf`` entries and pads, rows with nothing
detected, per-station thresholds -- and every measurement must match
the oracle in hit, dwell, RSS and SNR.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.pose import Pose
from repro.geometry.vectors import Vec3
from repro.net.base_station import BaseStation
from repro.net.link_engine import LinkEngine
from repro.phy.channel import Channel
from repro.phy.codebook import Codebook
from repro.phy.link import LinkBudget
from repro.sim.rng import RngRegistry

from channel_configs import DETERMINISTIC

BUDGET = LinkBudget()
NOISE = BUDGET.noise_floor_dbm
EDGE = NOISE + BUDGET.detection_snr_db  # default detection edge, dBm


class GridChannel:
    """Channel stand-in: each burst call returns the next scripted row."""

    def __init__(self, rows):
        self._rows = list(rows)

    def burst_rss_dbm(self, link_id, time_s, tx_pose, rx_pose, tx_gains,
                      rx_gain_dbi, tx_power_dbm):
        row = np.array(self._rows.pop(0), dtype=float)
        assert row.shape == np.shape(tx_gains)
        return row

    def burst_rss_rows_dbm(self, link_ids, time_s, tx_poses, rx_poses,
                           tx_gains_dbi, rx_gains_dbi, tx_powers_dbm,
                           n_dwells):
        grid = np.full(np.shape(tx_gains_dbi), -np.inf)
        for r, n in enumerate(n_dwells):
            grid[r, :n] = self._rows.pop(0)
        return grid


@functools.lru_cache(maxsize=None)
def station(
    n_beams: int, index: int, threshold: float = BUDGET.detection_snr_db
) -> BaseStation:
    codebook = Codebook.uniform_azimuth(360.0 / n_beams)
    assert len(codebook) == n_beams
    built = BaseStation(f"cell{index}", Pose(Vec3(0.0, 10.0 * index)), codebook)
    built.link_budget = LinkBudget(detection_snr_db=threshold)
    return built


def mask_then_argmax(row, threshold):
    """The former rule: ``(dwell, rss, snr)`` or ``None``."""
    row = np.asarray(row, dtype=float)
    detected = np.flatnonzero(row - NOISE >= threshold)
    if detected.size == 0:
        return None
    best = int(detected[np.argmax(row[detected])])
    return best, float(row[best]), BUDGET.snr_db(float(row[best]))


def outcome(measurement):
    if not measurement.detected:
        assert measurement.rss_dbm is None and measurement.snr_db is None
        return None
    return measurement.tx_beam, measurement.rss_dbm, measurement.snr_db


# A few levels around the detection edge repeat often (exact ties and
# rows entirely below it); -inf is an undetectable dwell.
LEVELS = [-math.inf, NOISE, EDGE - 0.5, EDGE, EDGE + 0.25, EDGE + 3.0]
RSS = st.one_of(
    st.sampled_from(LEVELS),
    st.floats(EDGE - 10.0, EDGE + 10.0, allow_nan=False),
)
THRESHOLD = st.one_of(
    st.just(BUDGET.detection_snr_db), st.sampled_from([-3.0, 0.0, 5.0, 12.5]),
    st.floats(-20.0, 20.0, allow_nan=False),
)


@st.composite
def ticks(draw):
    """Stations of distinct burst lengths and own detection thresholds,
    each with measured rows."""
    groups = []
    for index in range(draw(st.integers(1, 3))):
        n_beams = draw(st.integers(1, 8))
        rows = draw(st.lists(
            st.lists(RSS, min_size=n_beams, max_size=n_beams),
            min_size=1, max_size=3,
        ))
        groups.append((station(n_beams, index, draw(THRESHOLD)), rows))
    return groups


def requests_for(rows):
    return [
        (f"ue{u}", Pose(Vec3(5.0, 1.0 + u)), lambda beam, azimuth: 0.0, 0)
        for u in range(len(rows))
    ]


def engine(rows):
    return LinkEngine(GridChannel(rows), RngRegistry(1))


@settings(max_examples=200, deadline=None)
@given(groups=ticks())
def test_both_paths_match_mask_then_argmax(groups):
    all_rows = [row for _, rows in groups for row in rows]
    expected = [
        mask_then_argmax(row, base.link_budget.detection_snr_db)
        for base, rows in groups
        for row in rows
    ]

    single = engine(all_rows)
    got_single = [
        outcome(single.measure_burst(base, mobile_id, pose, gain, beam, 0.0))
        for base, rows in groups
        for mobile_id, pose, gain, beam in requests_for(rows)
    ]
    assert got_single == expected

    multi = engine(all_rows)
    results = multi.measure_burst_multi(
        [(base, requests_for(rows)) for base, rows in groups], 0.0
    )
    got_multi = [outcome(m) for group in results for m in group]
    assert got_multi == expected


def test_tie_resolves_to_first_dwell():
    row = [EDGE - 1.0, EDGE + 2.0, EDGE + 2.0, EDGE + 2.0]
    base = station(4, 0)
    (request,) = requests_for([row])
    measurement = engine([row]).measure_burst(base, *request, 0.0)
    assert measurement.tx_beam == 1


def test_single_link_zero_xy_offset_raises():
    registry = RngRegistry(1)
    links = LinkEngine(Channel(DETERMINISTIC, registry), registry)
    base = station(4, 0)
    above = Pose(Vec3(base.pose.position.x, base.pose.position.y, 3.0))
    with pytest.raises(ValueError):
        links.measure_burst(base, "ue0", above, lambda beam, azimuth: 0.0, 0, 0.0)
