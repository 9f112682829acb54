"""Unit tests for the link engine (burst measurement, up/downlink)."""

import pytest

from repro.geometry.pose import Pose
from repro.geometry.vectors import Vec3
from repro.net.base_station import BaseStation
from repro.net.link_engine import LinkEngine
from repro.phy.channel import Channel, ChannelConfig
from repro.phy.codebook import Codebook
from repro.phy.link import LinkBudget
from repro.sim.rng import RngRegistry

from channel_configs import DETERMINISTIC


def make_engine(seed=1, deterministic=True):
    config = DETERMINISTIC if deterministic else ChannelConfig()
    registry = RngRegistry(seed)
    return LinkEngine(Channel(config, registry), registry)


def make_station(tx_power=10.0, cell_id="cellA"):
    return BaseStation(
        cell_id,
        Pose(Vec3(0.0, 10.0)),
        Codebook.uniform_azimuth(20.0),
        tx_power_dbm=tx_power,
        link_budget=LinkBudget(),
    )


def make_mobile_side(codebook=None):
    """A pose + gain function standing in for a Mobile at (10, 0)."""
    codebook = codebook or Codebook.uniform_azimuth(20.0)
    pose = Pose(Vec3(10.0, 0.0), heading=0.0)

    def gain(rx_beam, world_azimuth):
        return codebook.gain_dbi(rx_beam, pose.world_to_body(world_azimuth))

    return pose, gain, codebook


class TestMeasureBurst:
    def test_detects_on_aligned_beam(self):
        engine = make_engine()
        station = make_station(tx_power=10.0)
        pose, gain, codebook = make_mobile_side()
        rx_beam = codebook.best_beam_towards(
            pose.world_to_body(pose.bearing_to(station.pose.position))
        ).index
        measurement = engine.measure_burst(station, "ue0", pose, gain, rx_beam, 0.0)
        assert measurement.detected
        assert measurement.cell_id == "cellA"
        assert measurement.rx_beam == rx_beam

    def test_best_tx_beam_is_geometric_best(self):
        engine = make_engine()
        station = make_station(tx_power=10.0)
        pose, gain, codebook = make_mobile_side()
        rx_beam = codebook.best_beam_towards(
            pose.world_to_body(pose.bearing_to(station.pose.position))
        ).index
        measurement = engine.measure_burst(station, "ue0", pose, gain, rx_beam, 0.0)
        expected_tx = station.best_tx_beam_towards(
            station.pose.bearing_to(pose.position)
        )
        assert measurement.tx_beam == expected_tx

    def test_misaligned_beam_misses(self):
        engine = make_engine()
        station = make_station(tx_power=0.0)
        pose, gain, codebook = make_mobile_side()
        best = codebook.best_beam_towards(
            pose.world_to_body(pose.bearing_to(station.pose.position))
        ).index
        opposite = (best + len(codebook) // 2) % len(codebook)
        measurement = engine.measure_burst(station, "ue0", pose, gain, opposite, 0.0)
        assert not measurement.detected

    def test_snr_reported(self):
        engine = make_engine()
        station = make_station(tx_power=10.0)
        pose, gain, codebook = make_mobile_side()
        rx_beam = codebook.best_beam_towards(
            pose.world_to_body(pose.bearing_to(station.pose.position))
        ).index
        measurement = engine.measure_burst(station, "ue0", pose, gain, rx_beam, 0.0)
        assert measurement.snr_db == pytest.approx(
            station.link_budget.snr_db(measurement.rss_dbm)
        )

    def test_detection_threshold_override(self):
        engine = make_engine()
        station = make_station(tx_power=10.0)
        station.link_budget = LinkBudget(detection_snr_db=90.0)
        pose, gain, codebook = make_mobile_side()
        rx_beam = codebook.best_beam_towards(
            pose.world_to_body(pose.bearing_to(station.pose.position))
        ).index
        strict = engine.measure_burst(station, "ue0", pose, gain, rx_beam, 0.0)
        assert not strict.detected


class TestDirectedLinks:
    def test_aligned_uplink_succeeds(self):
        engine = make_engine()
        station = make_station(tx_power=10.0)
        pose, gain, codebook = make_mobile_side()
        rx_beam = codebook.best_beam_towards(
            pose.world_to_body(pose.bearing_to(station.pose.position))
        ).index
        tx_beam = station.best_tx_beam_towards(
            station.pose.bearing_to(pose.position)
        )
        successes = sum(
            engine.uplink_success(
                station, "ue0", pose, gain, rx_beam, tx_beam, 0.0
            )
            for _ in range(20)
        )
        assert successes == 20

    def test_misaligned_uplink_fails(self):
        engine = make_engine()
        station = make_station(tx_power=0.0)
        pose, gain, codebook = make_mobile_side()
        best = codebook.best_beam_towards(
            pose.world_to_body(pose.bearing_to(station.pose.position))
        ).index
        opposite = (best + len(codebook) // 2) % len(codebook)
        successes = sum(
            engine.uplink_success(station, "ue0", pose, gain, opposite, 0, 0.0)
            for _ in range(20)
        )
        assert successes == 0

    def test_preamble_margin_helps(self):
        """extra_margin_db rescues marginal uplinks."""
        engine = make_engine()
        station = make_station(tx_power=10.0)
        pose, gain, codebook = make_mobile_side()
        rx_beam = codebook.best_beam_towards(
            pose.world_to_body(pose.bearing_to(station.pose.position))
        ).index
        tx_beam = station.best_tx_beam_towards(
            station.pose.bearing_to(pose.position)
        )
        # The deterministic channel's uplink RSS is its mean.
        rss = engine.channel.mean_rss_dbm(
            pose,
            station.pose,
            gain(rx_beam, pose.bearing_to(station.pose.position)),
            station.tx_gain_dbi(tx_beam, station.pose.bearing_to(pose.position)),
            engine.mobile_tx_power_dbm,
        )
        # Sit exactly at 50% decode: margin should lift success rate.
        budget = station.link_budget
        deficit = budget.decode_snr_db + budget.noise_floor_dbm - rss
        base = sum(
            engine.uplink_success(
                station, "ue0", pose, gain, rx_beam, tx_beam, 0.0,
                extra_margin_db=deficit,
            )
            for _ in range(200)
        )
        boosted = sum(
            engine.uplink_success(
                station, "ue0", pose, gain, rx_beam, tx_beam, 0.0,
                extra_margin_db=deficit + 6.0,
            )
            for _ in range(200)
        )
        assert boosted > base

    def test_link_id_canonical(self):
        assert LinkEngine.link_id("cellA", "ue0") == "cellA|ue0"
