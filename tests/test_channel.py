"""Unit tests for the composite channel."""

import pytest

from repro.geometry.pose import Pose
from repro.geometry.vectors import Vec3
from repro.phy.blockage import BlockageConfig
from repro.phy.channel import Channel, ChannelConfig
from repro.phy.pathloss import CloseInPathLoss
from repro.sim.rng import RngRegistry


def make_channel(config=None, seed=1):
    return Channel(config or ChannelConfig.deterministic(), RngRegistry(seed))


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
        config = ChannelConfig(
            shadowing_sigma_db=0.0,
            blockage=BlockageConfig.disabled(),
            rician_k_db=5.0,
        )
        channel = make_channel(config, seed=2)
        no_fading = channel.rss_dbm(
            "l", 0.0, TX, RX, 0.0, 0.0, 0.0, include_fading=False
        )
        assert no_fading == pytest.approx(channel.mean_rss_dbm(TX, RX, 0.0, 0.0, 0.0))

    def test_link_state_created_lazily(self):
        channel = make_channel()
        assert channel.active_links == 0
        channel.rss_dbm("l1", 0.0, TX, RX, 0.0, 0.0, 0.0)
        assert channel.active_links == 1
        channel.rss_dbm("l1", 0.1, TX, RX, 0.0, 0.0, 0.0)
        assert channel.active_links == 1

    def test_custom_pathloss_model(self):
        config = ChannelConfig(
            frequency_hz=28e9,
            pathloss_exponent=3.0,
            shadowing_sigma_db=0.0,
            rician_k_db=None,
            blockage=BlockageConfig.disabled(),
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
                                             blockage=BlockageConfig.disabled()),
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

    def test_deterministic_profile(self):
        config = ChannelConfig.deterministic()
        assert config.shadowing_sigma_db == 0.0
        assert config.rician_k_db is None
        assert config.blockage.rate_per_s == 0.0
