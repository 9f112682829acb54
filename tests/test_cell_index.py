"""Spatial cell index: bounds, guard radius, hash queries, safety rails.

The index may only ever prune links that *provably* cannot detect, so
these tests check conservativeness end to end: the fading/shadowing
tail bounds, the path-loss inverses, the trajectory position bounds,
the spatial-hash query, and the deployment-level guards that turn a
violated assumption (horizon overrun, codebook swap) into a loud error
instead of a silently wrong artifact.
"""

import math

import numpy as np
import pytest

from repro.experiments.scenarios import build_corridor_deployment
from repro.geometry.pose import Pose
from repro.geometry.vectors import Vec3
from repro.mobility.base import StaticPose, TimeShifted
from repro.mobility.rotation import DeviceRotation
from repro.mobility.vehicular import VehicularDriveBy
from repro.mobility.walk import HumanWalk
from repro.net.cell_index import (
    DEFAULT_TAIL_SIGMA,
    CellIndex,
    fading_gain_bound_db,
    guard_radius_m,
)
from repro.net.mobile import Mobile
from repro.phy.codebook import Codebook
from repro.phy.fading import RicianFading
from repro.phy.pathloss import CloseInPathLoss, PathLossModel


class _Sweep:
    def __init__(self, n_beams):
        self._n = n_beams
        self._count = 0

    def choose_rx_beam(self, cell_id, now_s):
        self._count += 1
        return self._count % self._n

    def on_measurement(self, measurement):
        pass


class TestFadingBound:
    def test_disabled_fading_bounds_at_zero(self):
        assert fading_gain_bound_db(None, DEFAULT_TAIL_SIGMA) == 0.0

    def test_bound_dominates_sampled_gains(self):
        # Empirical check: 10^6 draws never exceed the 12-sigma bound,
        # and a modest 3-sigma bound already covers nearly all of them.
        bound = fading_gain_bound_db(10.0, DEFAULT_TAIL_SIGMA)
        fading = RicianFading(10.0, np.random.default_rng(5))
        draws = fading.sample_db_array(1_000_000)
        assert float(draws.max()) < bound

    def test_bound_never_negative(self):
        # log10(max(power, 1)): a deep-fade-only bound would be
        # negative, which must clamp to 0 (fading can only help the
        # attacker side of the budget, never be *required* to hurt it).
        assert fading_gain_bound_db(-20.0, 0.0) == 0.0


class TestPathLossInverses:
    @pytest.mark.parametrize(
        "model",
        [
            # Free space: the CI model with exponent 2.
            CloseInPathLoss(60.0e9, exponent=2.0),
            CloseInPathLoss(60.0e9, exponent=2.1),
            CloseInPathLoss(60.0e9, exponent=3.2),
        ],
    )
    @pytest.mark.parametrize("loss_db", [60.0, 90.0, 110.0, 140.0])
    def test_inverse_is_conservative(self, model, loss_db):
        distance = model.max_distance_for_loss(loss_db)
        assert distance is not None
        # Beyond the returned distance the loss must be >= loss_db.
        for factor in (1.0 + 1e-9, 1.5, 10.0):
            assert model.path_loss_db(distance * factor) >= loss_db - 1e-6

    def test_default_inverse_is_none(self):
        class Opaque(PathLossModel):
            def path_loss_db(self, distance_m):
                return 100.0

        assert Opaque().max_distance_for_loss(120.0) is None


class TestPositionBounds:
    def _check(self, trajectory, horizon_s, samples=200):
        bound = trajectory.position_bound(horizon_s)
        assert bound is not None
        center, radius = bound
        horizon = 1e4 if horizon_s is None else horizon_s
        for k in range(samples + 1):
            position = trajectory.pose_at(horizon * k / samples).position
            assert center.distance_to(position) <= radius + 1e-9

    def test_static_bound_is_exact(self):
        trajectory = StaticPose(Pose(Vec3(3.0, 4.0, 1.5), 0.0))
        assert trajectory.position_bound(None) == (Vec3(3.0, 4.0, 1.5), 0.0)

    def test_rotation_bounded_without_horizon(self):
        trajectory = DeviceRotation(Vec3(1.0, 2.0, 1.5), math.pi)
        self._check(trajectory, None)

    def test_walk_requires_horizon(self):
        trajectory = HumanWalk(Vec3(0.0, 0.0, 1.5), Vec3(1.4, 0.0, 0.0))
        assert trajectory.position_bound(None) is None
        self._check(trajectory, 30.0)

    def test_vehicular_requires_horizon(self):
        trajectory = VehicularDriveBy(Vec3(0.0, 0.0, 1.5), 0.3, 14.0)
        assert trajectory.position_bound(None) is None
        self._check(trajectory, 10.0)

    def test_time_shifted_delegates(self):
        inner = HumanWalk(Vec3(0.0, 0.0, 1.5), Vec3(1.4, 0.0, 0.0))
        shifted = TimeShifted(inner, 5.0)
        assert shifted.position_bound(None) is None
        self._check(shifted, 20.0)


class TestCellIndex:
    def _stations(self, deployment):
        return list(deployment._stations.values())

    def test_within_matches_brute_force(self):
        deployment = build_corridor_deployment(3, n_cells=32)
        stations = self._stations(deployment)
        for bucket_m in (10.0, 100.0, 5000.0):
            index = CellIndex(stations, bucket_m=bucket_m)
            assert len(index) == 32
            for radius in (0.0, 120.0, 700.0):
                center = Vec3(333.0, 5.0, 1.5)
                expected = frozenset(
                    s.cell_id
                    for s in stations
                    if center.distance_to(s.pose.position) <= radius
                )
                assert index.within(center, radius) == expected

    def test_rejects_bad_arguments(self):
        deployment = build_corridor_deployment(3, n_cells=4)
        with pytest.raises(ValueError):
            CellIndex(self._stations(deployment), bucket_m=0.0)
        index = CellIndex(self._stations(deployment), bucket_m=50.0)
        with pytest.raises(ValueError):
            index.within(Vec3(0.0, 0.0, 0.0), -1.0)


class TestGuardRadius:
    def _population(self, n_cells=16):
        deployment = build_corridor_deployment(3, n_cells=n_cells)
        codebook = Codebook.uniform_azimuth(20.0)
        mobiles = [
            Mobile("ue0", StaticPose(Pose(Vec3(5.0, 0.0, 1.5), 0.0)), codebook)
        ]
        return deployment, list(deployment._stations.values()), mobiles

    def test_radius_excludes_only_undetectable_stations(self):
        deployment, stations, mobiles = self._population()
        radius = guard_radius_m(deployment.channel, stations, mobiles)
        assert radius is not None and radius > 0.0
        # The corridor's 50 m pitch means nearby cells are inside any
        # sane guard radius and the 16-cell span (750 m) exceeds it.
        assert radius > 50.0
        assert radius < 750.0

    def test_empty_population_disables(self):
        deployment, stations, mobiles = self._population()
        assert guard_radius_m(deployment.channel, [], mobiles) is None
        assert guard_radius_m(deployment.channel, stations, []) is None

    def test_uninvertible_pathloss_disables(self):
        class Opaque(PathLossModel):
            def path_loss_db(self, distance_m):
                return 100.0

        deployment, stations, mobiles = self._population()
        deployment.channel.pathloss = Opaque()
        assert (
            guard_radius_m(deployment.channel, stations, mobiles) is None
        )

    def test_missing_link_budget_disables(self):
        deployment, stations, mobiles = self._population()
        stations[3].link_budget = None
        assert (
            guard_radius_m(deployment.channel, stations, mobiles) is None
        )


class TestDeploymentGuards:
    def _dense_deployment(self, horizon_s=None, n_cells=24):
        from repro.net.deployment import DeploymentConfig
        from repro.experiments.scenarios import build_corridor_deployment

        config = None
        if horizon_s is not None:
            config = DeploymentConfig(horizon_s=horizon_s)
        deployment = build_corridor_deployment(
            7, config=config, n_cells=n_cells
        )
        codebook = Codebook.uniform_azimuth(20.0)
        mobile = Mobile(
            "ue0", StaticPose(Pose(Vec3(5.0, 0.0, 1.5), 0.0)), codebook
        )
        mobile.attach_listener(_Sweep(len(codebook)))
        deployment.add_mobile(mobile)
        return deployment, mobile

    def test_static_mobiles_prune_without_horizon(self):
        deployment, mobile = self._dense_deployment()
        deployment.start()
        assert deployment._candidates is not None
        candidates = deployment._candidates[mobile.mobile_id]
        assert 0 < len(candidates) < len(deployment._stations)
        # Static bounds need no horizon, so overrunning any duration
        # is fine: no RuntimeError past any particular time.
        assert deployment._index_horizon_s is None
        deployment.run(1.0)

    def test_walker_pruning_requires_horizon(self):
        from repro.net.deployment import DeploymentConfig

        deployment = build_corridor_deployment(7, n_cells=24)
        codebook = Codebook.uniform_azimuth(20.0)
        mobile = Mobile(
            "ue0",
            HumanWalk(Vec3(5.0, 0.0, 1.5), Vec3(1.4, 0.0, 0.0)),
            codebook,
        )
        deployment.add_mobile(mobile)
        deployment.start()
        # No horizon configured: the walker cannot be bounded.
        assert (
            deployment._candidates is None
            or mobile.mobile_id not in deployment._candidates
        )

    def test_horizon_overrun_raises_with_active_exclusions(self):
        deployment, mobile = self._dense_deployment(horizon_s=0.5)
        # Force the index to treat the (static, horizon-free) bound as
        # horizon-dependent by replacing the trajectory with a walker
        # before start.
        mobile.trajectory = HumanWalk(
            Vec3(5.0, 0.0, 1.5), Vec3(0.5, 0.0, 0.0)
        )
        with pytest.raises(RuntimeError, match="cell-index horizon"):
            deployment.run(1.0)

    def test_codebook_swap_to_hotter_codebook_raises(self):
        deployment, mobile = self._dense_deployment()
        deployment.run(0.1)
        hotter = Codebook.uniform_azimuth(2.0)  # far higher peak gain
        assert hotter.max_gain_dbi > mobile.codebook.max_gain_dbi
        mobile.codebook = hotter
        with pytest.raises(RuntimeError, match="swapped"):
            deployment.run(1.0)

    def test_codebook_swap_to_equal_bound_is_allowed(self):
        deployment, mobile = self._dense_deployment()
        deployment.run(0.1)
        mobile.codebook = Codebook.uniform_azimuth(20.0)  # same peak gain
        deployment.run(0.2)

    def test_index_off_never_populates_candidates(self):
        from repro.bench.harness import env_override

        with env_override("REPRO_CELL_INDEX", "off"):
            deployment, mobile = self._dense_deployment()
            deployment.run(0.2)
        assert deployment._candidates is None
