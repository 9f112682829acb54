"""Unit tests for the composite channel."""

import pytest

from repro.geometry.pose import Pose
from repro.geometry.vectors import Vec3
from repro.phy.blockage import BlockageConfig
from repro.phy.channel import Channel, ChannelConfig
from repro.phy.pathloss import CloseInPathLoss
from repro.sim.rng import RngRegistry

from channel_configs import DETERMINISTIC


def make_channel(config=None, seed=1):
    return Channel(config or DETERMINISTIC, RngRegistry(seed))


TX = Pose(Vec3(0.0, 10.0))
RX = Pose(Vec3(10.0, 0.0))


class TestDeterministicChannel:
    def test_rss_equals_link_budget_identity(self):
        channel = make_channel()
        distance = TX.position.distance_to(RX.position)
        expected = 10.0 + 15.0 + 12.0 - channel.pathloss.path_loss_db(distance)
        rss = channel.rss_dbm("l", 0.0, TX, RX, 15.0, 12.0, 10.0)
        assert rss == pytest.approx(expected)

    def test_mean_rss_matches_deterministic(self):
        channel = make_channel()
        assert channel.mean_rss_dbm(TX, RX, 15.0, 12.0, 10.0) == pytest.approx(
            channel.rss_dbm("l", 0.0, TX, RX, 15.0, 12.0, 10.0)
        )

    def test_rss_decreases_with_distance(self):
        channel = make_channel()
        near = channel.mean_rss_dbm(TX, Pose(Vec3(2.0, 10.0)), 0.0, 0.0, 0.0)
        far = channel.mean_rss_dbm(TX, Pose(Vec3(50.0, 10.0)), 0.0, 0.0, 0.0)
        assert near > far

    def test_gains_add_linearly(self):
        channel = make_channel()
        base = channel.rss_dbm("l", 0.0, TX, RX, 0.0, 0.0, 0.0)
        boosted = channel.rss_dbm("l", 0.0, TX, RX, 10.0, 5.0, 3.0)
        assert boosted == pytest.approx(base + 18.0)


class TestStochasticChannel:
    def test_reproducible_by_seed(self):
        config = ChannelConfig()
        a = make_channel(config, seed=42)
        b = make_channel(config, seed=42)
        times = [0.02 * k for k in range(50)]
        series_a = [a.rss_dbm("x", t, TX, RX, 10.0, 10.0, 0.0) for t in times]
        series_b = [b.rss_dbm("x", t, TX, RX, 10.0, 10.0, 0.0) for t in times]
        assert series_a == series_b

    def test_different_links_decorrelated(self):
        channel = make_channel(ChannelConfig(), seed=1)
        a = [channel.rss_dbm("a", 0.02 * k, TX, RX, 0.0, 0.0, 0.0) for k in range(20)]
        b = [channel.rss_dbm("b", 0.02 * k, TX, RX, 0.0, 0.0, 0.0) for k in range(20)]
        assert a != b

    def test_include_fading_flag(self):
        """``rician_k_db=None`` switches small-scale fading off."""
        quiet = dict(shadowing_sigma_db=0.0, blockage=BlockageConfig(rate_per_s=0.0))
        faded = make_channel(ChannelConfig(rician_k_db=5.0, **quiet), seed=2)
        plain = make_channel(ChannelConfig(rician_k_db=None, **quiet), seed=2)
        mean = plain.mean_rss_dbm(TX, RX, 0.0, 0.0, 0.0)
        assert plain.rss_dbm("l", 0.0, TX, RX, 0.0, 0.0, 0.0) == pytest.approx(mean)
        assert faded.rss_dbm("l", 0.0, TX, RX, 0.0, 0.0, 0.0) != pytest.approx(mean)

    def test_link_state_created_lazily(self):
        # A link's state owns its shadowing and blockage streams.
        registry = RngRegistry(1)
        channel = Channel(DETERMINISTIC, registry)
        assert registry.stream_names() == []
        channel.rss_dbm("l1", 0.0, TX, RX, 0.0, 0.0, 0.0)
        assert registry.stream_names() == ["blockage/l1", "shadowing/l1"]
        channel.rss_dbm("l1", 0.1, TX, RX, 0.0, 0.0, 0.0)
        assert registry.stream_names() == ["blockage/l1", "shadowing/l1"]

    def test_custom_pathloss_model(self):
        config = ChannelConfig(
            frequency_hz=28e9,
            pathloss_exponent=3.0,
            shadowing_sigma_db=0.0,
            rician_k_db=None,
            blockage=BlockageConfig(rate_per_s=0.0),
        )
        channel = Channel(config, RngRegistry(1))
        reference = CloseInPathLoss(28e9, exponent=3.0)
        assert channel.pathloss.exponent == 3.0
        assert channel.pathloss.frequency_hz == 28e9
        for distance_m in (0.5, 10.0, 250.0):
            assert channel.pathloss.path_loss_db(distance_m) == (
                reference.path_loss_db(distance_m)
            )

    def test_rotation_advances_shadowing_distance(self):
        """Heading change alone must advance the shadowing process."""
        channel = make_channel(ChannelConfig(shadowing_sigma_db=3.0,
                                             rician_k_db=None,
                                             blockage=BlockageConfig(rate_per_s=0.0)),
                               seed=3)
        state = channel.link_state("l")
        rss_series = []
        for k in range(50):
            pose = Pose(Vec3(10.0, 0.0), heading=0.3 * k)
            rss_series.append(
                channel.rss_dbm("l", 0.02 * k, TX, pose, 0.0, 0.0, 0.0)
            )
        # Shadowing evolves: not all values identical.
        assert len(set(round(r, 6) for r in rss_series)) > 1
        assert state.traveled_m(Pose(Vec3(10.0, 0.0), heading=15.0)) > 0.0


class TestConfigValidation:
    def test_rejects_bad_frequency(self):
        with pytest.raises(ValueError):
            ChannelConfig(frequency_hz=0.0)

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            ChannelConfig(shadowing_sigma_db=-1.0)
