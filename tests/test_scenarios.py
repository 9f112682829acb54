"""Tests for the experiment scenario builders."""

import math

import pytest

from repro.experiments.scenarios import (
    SCENARIO_NAMES,
    STATION_POSITIONS,
    build_cell_edge_deployment,
    make_mobile_codebook,
    make_trajectory,
)
from repro.registry import SCENARIOS
from repro.util.units import mph_to_mps


class TestCodebooks:
    def test_kinds(self):
        assert len(make_mobile_codebook("narrow")) == 18
        assert len(make_mobile_codebook("wide")) == 6
        assert len(make_mobile_codebook("omni")) == 1

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_mobile_codebook("laser")


class TestTrajectories:
    def test_walk_speed(self):
        walk = make_trajectory("walk")
        moved = walk.pose_at(5.0).position.distance_to(walk.pose_at(0.0).position)
        assert moved / 5.0 == pytest.approx(1.4, rel=0.05)

    def test_rotation_rate(self):
        rotation = make_trajectory("rotation")
        # One full 120 deg/s second: heading advances ~120 degrees
        # (modulo tremor).
        delta = rotation.pose_at(1.0).heading - rotation.pose_at(0.0).heading
        assert math.degrees(abs(delta)) == pytest.approx(120, abs=5)

    def test_vehicular_speed(self):
        vehicle = make_trajectory("vehicular")
        moved = vehicle.pose_at(2.0).position.distance_to(vehicle.pose_at(0.0).position)
        assert moved / 2.0 == pytest.approx(mph_to_mps(20.0), rel=0.02)

    def test_start_x_override(self):
        walk = make_trajectory("walk", start_x=3.0)
        assert walk.pose_at(0.0).position.x == pytest.approx(3.0, abs=0.1)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_trajectory("teleport")

    def test_durations_positive(self):
        for scenario in SCENARIO_NAMES:
            assert SCENARIOS.get(scenario).duration_s > 0


class TestDeployment:
    def test_three_cells_default(self):
        deployment, mobile = build_cell_edge_deployment(1)
        assert {s.cell_id for s in deployment.stations} == set(STATION_POSITIONS)
        assert mobile.mobile_id == "ue0"

    def test_two_cell_variant(self):
        deployment, _ = build_cell_edge_deployment(1, n_cells=2)
        assert len(deployment.stations) == 2

    def test_n_cells_validated(self):
        with pytest.raises(ValueError):
            build_cell_edge_deployment(1, n_cells=1)
        with pytest.raises(ValueError):
            build_cell_edge_deployment(1, n_cells=9)

    def test_phases_staggered(self):
        deployment, _ = build_cell_edge_deployment(1)
        phases = sorted(s.schedule.phase_s for s in deployment.stations)
        gaps = [b - a for a, b in zip(phases, phases[1:])]
        burst = deployment.stations[0].schedule.burst_duration_s()
        assert all(gap > burst for gap in gaps)

    def test_cell_edge_geometry(self):
        """The mobile operates ~10-15 m from the nearest stations."""
        deployment, mobile = build_cell_edge_deployment(1, scenario="walk")
        pose = mobile.pose_at(0.0)
        distances = sorted(
            pose.distance_to(s.pose.position) for s in deployment.stations
        )
        assert 8.0 <= distances[0] <= 16.0

    def test_seed_controls_channel(self):
        a, _ = build_cell_edge_deployment(1)
        b, _ = build_cell_edge_deployment(2)
        assert a.config.master_seed != b.config.master_seed
