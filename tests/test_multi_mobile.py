"""Integration: several mobiles with independent protocols in one cell grid.

The deployment broadcasts every SSB burst to every mobile; per-link
channel state, connections and protocol instances must stay fully
isolated.
"""

import math

import pytest

from repro.core.silent_tracker import SilentTracker
from repro.experiments.scenarios import (
    STATION_PHASES_S,
    STATION_POSITIONS,
    BS_BEAMWIDTH_DEG,
    BS_TX_POWER_DBM,
    make_mobile_codebook,
)
from repro.geometry.pose import Pose
from repro.geometry.vectors import Vec3
from repro.mobility.walk import HumanWalk
from repro.net.base_station import BaseStation
from repro.net.deployment import Deployment, DeploymentConfig
from repro.net.mobile import Mobile
from repro.phy.codebook import Codebook


@pytest.fixture(scope="module")
def two_mobile_run():
    deployment = Deployment(DeploymentConfig(master_seed=31))
    for cell_id, position in STATION_POSITIONS.items():
        deployment.add_station(
            BaseStation(
                cell_id,
                Pose(position, heading=-math.pi / 2),
                Codebook.uniform_azimuth(BS_BEAMWIDTH_DEG),
                tx_power_dbm=BS_TX_POWER_DBM,
                ssb_phase_s=STATION_PHASES_S[cell_id],
            )
        )
    # Two pedestrians walking opposite directions across the A/B edge.
    east = deployment.add_mobile(
        Mobile(
            "ue-east",
            HumanWalk(Vec3(9.0, 0.0), Vec3(1.4, 0.0),
                      rng=deployment.rng.stream("mob/east")),
            make_mobile_codebook("narrow"),
        )
    )
    west = deployment.add_mobile(
        Mobile(
            "ue-west",
            HumanWalk(Vec3(11.0, -1.0), Vec3(-1.4, 0.0),
                      rng=deployment.rng.stream("mob/west")),
            make_mobile_codebook("narrow"),
        )
    )
    protocol_east = SilentTracker(deployment, east, "cellA")
    protocol_west = SilentTracker(deployment, west, "cellB")
    protocol_east.start()
    protocol_west.start()
    deployment.run(6.0)
    protocol_east.stop()
    protocol_west.stop()
    return deployment, east, west, protocol_east, protocol_west


class TestTwoMobiles:
    def test_both_measured(self, two_mobile_run):
        _, east, west, _, _ = two_mobile_run
        assert east.bursts_measured > 50
        assert west.bursts_measured > 50

    def test_east_hands_to_cellb(self, two_mobile_run):
        _, east, _, protocol_east, _ = two_mobile_run
        completed = [
            r for r in protocol_east.handover_log.records
            if r.complete_s is not None
        ]
        assert completed
        assert completed[0].target_cell == "cellB"

    def test_west_hands_to_cella(self, two_mobile_run):
        _, _, west, _, protocol_west = two_mobile_run
        completed = [
            r for r in protocol_west.handover_log.records
            if r.complete_s is not None
        ]
        assert completed
        assert completed[0].target_cell == "cellA"

    def test_attachments_isolated(self, two_mobile_run):
        deployment, east, west, _, _ = two_mobile_run
        for mobile in (east, west):
            serving = mobile.connection.serving_cell
            attached = [
                s.cell_id
                for s in deployment.stations
                if s.is_attached(mobile.mobile_id)
            ]
            if serving is None:
                assert attached == []
            else:
                assert attached == [serving]

    def test_trace_contains_both(self, two_mobile_run):
        deployment, _, _, _, _ = two_mobile_run
        nodes = {e.node for e in deployment.trace.events}
        assert {"ue-east", "ue-west"} <= nodes

    def test_channel_state_per_link(self, two_mobile_run):
        deployment, _, _, _, _ = two_mobile_run
        # 3 cells x 2 mobiles = up to 6 link states, at least 4 touched;
        # each link state owns one shadowing stream.
        shadowing = [
            name for name in deployment.rng.stream_names()
            if name.startswith("shadowing/")
        ]
        assert len(shadowing) >= 4
