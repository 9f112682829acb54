"""Unit tests for the base-station node."""

import math

import pytest

from repro.geometry.angles import angular_distance
from repro.geometry.pose import Pose
from repro.geometry.vectors import Vec3
from repro.net.base_station import BaseStation
from repro.phy.codebook import Codebook


def make_station(heading=0.0, beamwidth=30.0, cell_id="cellA"):
    return BaseStation(
        cell_id,
        Pose(Vec3(0.0, 10.0), heading=heading),
        Codebook.uniform_azimuth(beamwidth),
        tx_power_dbm=0.0,
        ssb_phase_s=0.0,
    )


class TestGeometry:
    def test_best_beam_points_at_target(self):
        station = make_station()
        target_azimuth = -math.pi / 4
        beam = station.best_tx_beam_towards(target_azimuth)
        boresight = station.codebook[beam].boresight_rad
        assert abs(boresight - target_azimuth) <= math.radians(15.0) + 1e-9

    def test_heading_rotates_codebook(self):
        # Same world target; stations with different headings pick beams
        # whose world boresights agree.
        a = make_station(heading=0.0)
        b = make_station(heading=math.pi / 2)
        target = 0.3
        beam_a = a.codebook[a.best_tx_beam_towards(target)].boresight_rad
        beam_b = b.codebook[b.best_tx_beam_towards(target)].boresight_rad
        world_a = beam_a + a.pose.heading
        world_b = beam_b + b.pose.heading
        assert angular_distance(world_a, world_b) <= math.radians(30.0)

    def test_tx_gain_peaks_on_best_beam(self):
        station = make_station()
        azimuth = 0.5
        best = station.best_tx_beam_towards(azimuth)
        gains = [
            station.tx_gain_dbi(i, azimuth) for i in range(len(station.codebook))
        ]
        assert gains[best] == max(gains)


class TestAttachment:
    def test_attach_and_query(self):
        station = make_station()
        station.attach("ue0", 3)
        assert station.is_attached("ue0")
        assert station.serving_tx_beam("ue0") == 3

    def test_detach(self):
        station = make_station()
        station.attach("ue0", 3)
        station.detach("ue0")
        assert not station.is_attached("ue0")

    def test_detach_unknown_is_noop(self):
        make_station().detach("ghost")

    def test_serving_beam_unknown_raises(self):
        with pytest.raises(KeyError):
            make_station().serving_tx_beam("ghost")

    def test_attach_validates_beam(self):
        station = make_station()
        with pytest.raises(IndexError):
            station.attach("ue0", 99)


class TestRefinement:
    def test_refine_moves_one_hop_toward_mobile(self):
        station = make_station(beamwidth=30.0)
        # Serve on a beam two hops away from the true bearing.
        true_azimuth = 0.0
        best = station.best_tx_beam_towards(true_azimuth)
        start = (best + 2) % len(station.codebook)
        station.attach("ue0", start)
        refined = station.refine_tx_beam("ue0", true_azimuth)
        assert refined in station.codebook.neighbors(start)
        assert refined in station.codebook.neighbors(best)

    def test_refine_stays_when_already_best(self):
        station = make_station()
        best = station.best_tx_beam_towards(0.4)
        station.attach("ue0", best)
        assert station.refine_tx_beam("ue0", 0.4) == best

    def test_repeated_refinement_converges(self):
        station = make_station(beamwidth=20.0)
        best = station.best_tx_beam_towards(-0.8)
        start = (best + 5) % len(station.codebook)
        station.attach("ue0", start)
        for _ in range(5):
            station.refine_tx_beam("ue0", -0.8)
        assert station.serving_tx_beam("ue0") == best


class TestValidation:
    def test_rejects_empty_cell_id(self):
        with pytest.raises(ValueError):
            BaseStation("", Pose(Vec3(0, 0)), Codebook.uniform_azimuth(30.0))

    def test_schedule_matches_codebook(self):
        station = make_station(beamwidth=30.0)
        assert station.schedule.n_beams == len(station.codebook)
