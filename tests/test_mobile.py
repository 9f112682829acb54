"""Unit tests for the mobile node."""

import math

import pytest

from repro.geometry.angles import angular_distance
from repro.geometry.pose import Pose
from repro.geometry.vectors import Vec3
from repro.mobility.base import StaticPose
from repro.mobility.rotation import DeviceRotation
from repro.net.base_station import BaseStation
from repro.net.deployment import Deployment, DeploymentConfig
from repro.net.mobile import Mobile
from repro.phy.codebook import Codebook

from channel_configs import DETERMINISTIC


def make_mobile(trajectory=None, codebook=None):
    return Mobile(
        "ue0",
        trajectory or StaticPose(Pose(Vec3(10.0, 0.0))),
        codebook or Codebook.uniform_azimuth(20.0),
    )


def make_station(tx_power=10.0):
    return BaseStation(
        "cellA",
        Pose(Vec3(0.0, 10.0)),
        Codebook.uniform_azimuth(20.0),
        tx_power_dbm=tx_power,
    )


class RecordingListener:
    def __init__(self, beam=0):
        self.beam = beam
        self.measurements = []

    def choose_rx_beam(self, cell_id, now_s):
        return self.beam

    def on_measurement(self, measurement):
        self.measurements.append(measurement)


class DecliningListener:
    def choose_rx_beam(self, cell_id, now_s):
        return None

    def on_measurement(self, measurement):
        raise AssertionError("should never be called")


class TestGainFunction:
    def test_heading_rotates_gains(self):
        """A rotated device sees the same world target on a different beam."""
        mobile = make_mobile(
            trajectory=DeviceRotation(
                Vec3(10.0, 0.0), math.radians(90), tremor_amplitude_rad=0.0
            )
        )
        station = make_station()
        beam_at_0 = mobile.best_rx_beam_towards(station, 0.0)
        beam_at_1s = mobile.best_rx_beam_towards(station, 1.0)  # +90 deg
        turned = angular_distance(
            mobile.codebook[beam_at_0].boresight_rad,
            mobile.codebook[beam_at_1s].boresight_rad,
        )
        # 90 degrees of rotation over a 20-degree codebook: ~4-5 hops.
        assert math.radians(60.0) <= turned <= math.radians(120.0)

    def test_rx_gain_fn_peaks_on_best_beam(self):
        mobile = make_mobile()
        station = make_station()
        best = mobile.best_rx_beam_towards(station, 0.0)
        gain = mobile.rx_gain_fn(0.0)
        bearing = mobile.pose_at(0.0).bearing_to(station.pose.position)
        gains = [gain(i, bearing) for i in range(len(mobile.codebook))]
        assert gains[best] == max(gains)


class TestRadioArbitration:
    def test_busy_window(self):
        mobile = make_mobile()
        mobile.occupy_radio(1.0, 0.01)
        assert mobile.radio_busy(1.005)
        assert not mobile.radio_busy(1.011)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            make_mobile().occupy_radio(0.0, -1.0)

    def test_burst_skipped_when_busy(self):
        mobile = make_mobile()
        listener = RecordingListener()
        mobile.attach_listener(listener)
        mobile.occupy_radio(0.0, 1.0)
        assert mobile.begin_burst(make_station(), 0.5) is None
        assert mobile.bursts_skipped_busy == 1
        assert listener.measurements == []

    def test_burst_declined_by_listener(self):
        mobile = make_mobile()
        mobile.attach_listener(DecliningListener())
        assert mobile.begin_burst(make_station(), 0.0) is None
        assert mobile.bursts_declined == 1
        assert not mobile.radio_busy(0.0)

    def test_burst_measured_and_delivered(self):
        # A one-mobile deployment delivers each burst through
        # begin_burst -> measure_burst -> complete_burst.
        deployment = Deployment(
            DeploymentConfig(channel=DETERMINISTIC)
        )
        station = deployment.add_station(make_station())
        mobile = deployment.add_mobile(make_mobile())
        best = mobile.best_rx_beam_towards(station, 0.0)
        listener = RecordingListener(beam=best)
        mobile.attach_listener(listener)
        deployment.run(0.5 * station.frame.ssb_period_s)
        (measurement,) = listener.measurements
        assert measurement.detected
        assert measurement.cell_id == "cellA"
        assert measurement.rx_beam == best
        assert mobile.bursts_measured == 1

    def test_burst_occupies_radio(self):
        mobile = make_mobile()
        station = make_station()
        mobile.attach_listener(RecordingListener(beam=2))
        assert mobile.begin_burst(station, 0.0) == 2
        assert mobile.radio_busy(station.schedule.burst_duration_s() / 2)
        assert mobile.bursts_measured == 0  # until complete_burst

    def test_no_listener_no_measurement(self):
        mobile = make_mobile()
        assert mobile.begin_burst(make_station(), 0.0) is None
        assert (mobile.bursts_skipped_busy, mobile.bursts_declined,
                mobile.bursts_measured) == (0, 0, 0)

    def test_rejects_empty_id(self):
        with pytest.raises(ValueError):
            Mobile("", StaticPose(Pose(Vec3(0, 0))), Codebook.omni())
