"""The tick-wide link pass, ``Channel.burst_rss_rows_dbm``.

A coalesced SSB tick evaluates every (station, user) link row in one
call.  These tests pin its contract against the single-link path:

* each row is bit-identical to a ``burst_rss_dbm`` call on the same
  inputs, made in row order on a twin channel, and every RNG stream is
  left in the same state;
* a call that fails validation touches no link state and no stream.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.pose import Pose
from repro.geometry.vectors import Vec3
from repro.phy.blockage import BlockageConfig
from repro.phy.channel import Channel, ChannelConfig
from repro.phy.shadowing import ShadowingProcess
from repro.sim.rng import RngRegistry

from channel_configs import DETERMINISTIC

TX_POSES = [
    Pose(Vec3(0.0, 10.0, 5.0), heading=-math.pi / 2.0),
    Pose(Vec3(20.0, 10.0, 5.0), heading=-math.pi / 2.0),
    Pose(Vec3(40.0, 10.0, 5.0), heading=-math.pi / 2.0),
]

CONFIGS = {
    "default": ChannelConfig(),
    "deterministic": DETERMINISTIC,
    "sigma0": ChannelConfig(shadowing_sigma_db=0.0),
    # Frequent blockers, so the lazy blockage draws interleave with the
    # tick's other per-link draws.
    "blocky": ChannelConfig(blockage=BlockageConfig(rate_per_s=8.0)),
}


def _stream_states(channel):
    registry = channel._rng_registry
    return {
        name: registry.stream(name).bit_generator.state
        for name in registry.stream_names()
    }


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


def _rows(rng, n_rows, n_links):
    """Random link rows: ids, tx/rx poses, gains, powers, dwell counts."""
    rows = []
    for _ in range(n_rows):
        rows.append(
            dict(
                link=f"cell|ue{int(rng.integers(n_links))}",
                tx=TX_POSES[int(rng.integers(len(TX_POSES)))],
                rx=Pose(
                    Vec3(
                        float(rng.uniform(-10.0, 50.0)),
                        float(rng.uniform(-5.0, 5.0)),
                        1.5,
                    ),
                    float(rng.uniform(-math.pi, math.pi)),
                ),
                rx_gain=float(rng.normal(0.0, 4.0)),
                tx_power=float(rng.choice([0.0, 3.0])),
            )
        )
    return rows


class TestRowsMatchSingleLinkLoop:
    @given(
        seed=st.integers(0, 2**31 - 1),
        dwells=st.lists(st.integers(1, 64), min_size=1, max_size=12),
        extra_pad=st.integers(0, 3),
        n_links=st.integers(1, 6),
        n_warm=st.integers(0, 6),
        config=st.sampled_from(sorted(CONFIGS)),
    )
    @settings(max_examples=120, deadline=None)
    def test_bit_identical_values_and_stream_states(
        self, seed, dwells, extra_pad, n_links, n_warm, config
    ):
        rng = np.random.default_rng(seed)
        rows = _rows(rng, len(dwells), n_links)
        max_dwells = max(dwells) + extra_pad
        gains = [rng.normal(5.0, 6.0, size=n) for n in dwells]
        grid = np.full((len(dwells), max_dwells), -np.inf)
        for r, row_gains in enumerate(gains):
            grid[r, :len(row_gains)] = row_gains

        tick = Channel(CONFIGS[config], RngRegistry(seed))
        loop = Channel(CONFIGS[config], RngRegistry(seed))
        # Warm some links on both channels at an earlier time, so the
        # tick mixes first-touch and warm links (and, with few link
        # ids, names some link more than once).
        for k in range(n_warm):
            for channel in (tick, loop):
                channel.burst_rss_dbm(
                    f"cell|ue{k % n_links}", 0.1, TX_POSES[0],
                    Pose(Vec3(1.0 + k, 0.0, 1.5), 0.2 * k),
                    np.linspace(-3.0, 9.0, 7), 0.5, 0.0,
                )

        result = tick.burst_rss_rows_dbm(
            [row["link"] for row in rows], 0.5,
            [row["tx"] for row in rows], [row["rx"] for row in rows],
            grid,
            [row["rx_gain"] for row in rows],
            [row["tx_power"] for row in rows],
            dwells,
        )
        assert result.shape == grid.shape
        for r, row in enumerate(rows):
            expected = loop.burst_rss_dbm(
                row["link"], 0.5, row["tx"], row["rx"], gains[r],
                row["rx_gain"], row["tx_power"],
            )
            assert _bits(result[r, :dwells[r]]) == _bits(expected)
            assert np.all(result[r, dwells[r]:] == -np.inf)
        # Equal stream names also mean the same links were created.
        assert _stream_states(tick) == _stream_states(loop)

    def test_duplicate_link_advances_sequentially(self):
        """A link named twice is advanced twice, as two calls would."""
        poses = [Pose(Vec3(3.0, 0.0, 1.5), 0.0), Pose(Vec3(4.5, 0.5, 1.5), 0.4)]
        grid = np.tile(np.linspace(0.0, 10.0, 18), (2, 1))
        tick = Channel(ChannelConfig(), RngRegistry(11))
        result = tick.burst_rss_rows_dbm(
            ["cell|ue0", "cell|ue0"], 0.3, [TX_POSES[1]] * 2, poses, grid,
            [0.0, 0.0], [0.0, 0.0], [18, 18],
        )
        loop = Channel(ChannelConfig(), RngRegistry(11))
        for r in range(2):
            expected = loop.burst_rss_dbm(
                "cell|ue0", 0.3, TX_POSES[1], poses[r], grid[r], 0.0, 0.0
            )
            assert _bits(result[r]) == _bits(expected)
        assert _stream_states(tick) == _stream_states(loop)
        assert tick.link_state("cell|ue0").traveled_m(poses[1]) == loop.link_state(
            "cell|ue0"
        ).traveled_m(poses[1])


class TestFailAtomic:
    def _channel_with_warm_link(self):
        channel = Channel(ChannelConfig(), RngRegistry(4))
        channel.burst_rss_dbm(
            "cell|ue0", 0.0, TX_POSES[0], Pose(Vec3(2.0, 0.0, 1.5)),
            np.zeros(18), 0.0, 0.0,
        )
        return channel

    @staticmethod
    def _link_snapshot(channel):
        state = channel.link_state("cell|ue0")
        return (
            state._traveled_m,
            state._last_rx_pose,
            state.shadowing._last_value_db,
            state.shadowing._last_distance,
            list(state.blockage._events),
        )

    @pytest.mark.parametrize(
        "dwells, rx_gains, match",
        [
            ([18, 19], [0.0, 0.0], "row 1: dwell count 19"),
            ([18, 0], [0.0, 0.0], "row 1: dwell count 0"),
            ([18, 18], [0.0], "row inputs disagree"),
        ],
    )
    def test_bad_row_touches_no_state(self, dwells, rx_gains, match):
        channel = self._channel_with_warm_link()
        streams_before = _stream_states(channel)
        snapshot = self._link_snapshot(channel)
        # Row 0 is the warm link, row 1 a link the channel has never seen.
        with pytest.raises(ValueError, match=match):
            channel.burst_rss_rows_dbm(
                ["cell|ue0", "cell|ue1"], 0.02, [TX_POSES[0]] * 2,
                [Pose(Vec3(2.5, 0.0, 1.5)), Pose(Vec3(9.0, 1.0, 1.5))],
                np.zeros((2, 18)), rx_gains, [0.0, 0.0], dwells,
            )
        # No new stream: the unseen link got no state either.
        assert _stream_states(channel) == streams_before
        assert self._link_snapshot(channel) == snapshot


def _legacy_sample_db(process, traveled_m):
    """The shadowing update as ``normal(0, sigma)`` calls spelled it."""
    if process.sigma_db == 0.0:
        return 0.0
    if process._last_value_db is None:
        value = float(process._rng.normal(0.0, process.sigma_db))
    else:
        delta = max(0.0, traveled_m - process._last_distance)
        rho = math.exp(-delta / process.decorrelation_m)
        innovation_sigma = process.sigma_db * math.sqrt(max(0.0, 1.0 - rho * rho))
        value = rho * process._last_value_db + float(
            process._rng.normal(0.0, innovation_sigma)
        )
    process._last_value_db = value
    process._last_distance = traveled_m
    return value


class TestShadowingDrawRewrite:
    @given(
        seed=st.integers(0, 2**31 - 1),
        sigma=st.sampled_from([0.0, 0.5, 2.5, 7.0]),
        bursts=st.lists(
            st.tuples(st.floats(0.0, 3.0), st.integers(1, 40)),
            min_size=1, max_size=15,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_one_standard_normal_call_matches_normal_loop(self, seed, sigma, bursts):
        """``sample_repeat_db(t, n)`` equals ``n`` legacy scalar updates."""
        batch = ShadowingProcess(sigma, 1.5, np.random.default_rng(seed))
        legacy = ShadowingProcess(sigma, 1.5, np.random.default_rng(seed))
        traveled = 0.0
        for step, n in bursts:
            traveled += step
            value = batch.sample_repeat_db(traveled, n)
            for _ in range(n):
                expected = _legacy_sample_db(legacy, traveled)
            assert _bits([value]) == _bits([expected])
        assert (
            batch._rng.bit_generator.state == legacy._rng.bit_generator.state
        )
