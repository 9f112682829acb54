"""Determinism contract of the fleet burst path.

Layers of evidence:

* grid micro-equivalence — the multi-link batch APIs
  (``Channel.burst_rss_rows_dbm``, ``LinkEngine.measure_burst_multi``)
  are bit-identical to looping their single-link counterparts and leave
  every RNG stream in the same state;
* goldens — the committed ``tests/data/golden_fleet_street_u64.json``
  is reproduced unsharded and sharded;
* branch equivalence — every user run alone (the one-mobile,
  single-link delivery branch) matches its row of the batched
  population run;
* sharded equivalence — a sharded run's merged artifact is
  byte-identical to the unsharded run across shard and worker counts;
* fresh-process repeatability — the same spec produces the same bytes
  in a brand-new interpreter.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.campaign.spec import canonical_json
from repro.fleet import FleetSpec, UserProfile, run_fleet_trial
from repro.geometry.pose import Pose
from repro.geometry.vectors import Vec3
from repro.net.base_station import BaseStation
from repro.net.deployment import Deployment, DeploymentConfig
from repro.phy.channel import Channel, ChannelConfig
from repro.phy.codebook import Codebook
from repro.sim.rng import RngRegistry

SRC = str(Path(__file__).resolve().parent.parent / "src")
GOLDEN_STREET = Path(__file__).resolve().parent / "data" / "golden_fleet_street_u64.json"


def street_golden_spec():
    """The spec behind ``golden_fleet_street_u64.json``.

    64 mixed-mobility users on the 3-cell street for 1 s (26 handovers,
    72 search samples).  Regenerate the golden with
    ``canonical_json(run_fleet_trial(street_golden_spec()).to_dict())``
    plus a trailing newline — the bytes ``repro fleet run --out`` writes.
    """
    return FleetSpec(
        "golden-street",
        n_users=64,
        profiles=(
            UserProfile("walkers", weight=0.6, scenario="walk",
                        start_jitter_s=0.2),
            UserProfile("spinners", weight=0.25, scenario="rotation"),
            UserProfile("drivers", weight=0.15, scenario="vehicular",
                        codebook="wide"),
        ),
        seed=11,
        duration_s=1.0,
    )


def fleet_spec(n_users=10, seed=11, duration_s=1.5):
    return FleetSpec(
        "equiv",
        n_users=n_users,
        profiles=(
            UserProfile("walkers", weight=0.6, scenario="walk",
                        start_jitter_s=0.2),
            UserProfile("spinners", weight=0.25, scenario="rotation"),
            UserProfile("drivers", weight=0.15, scenario="vehicular",
                        codebook="wide"),
        ),
        seed=seed,
        duration_s=duration_s,
    )


class TestGridMicroEquivalence:
    def test_codebook_grid_rows_bit_identical(self):
        codebook = Codebook.uniform_azimuth(20.0)
        azimuths = [0.0, 0.7, -2.1, math.pi]
        grid = codebook.gains_grid_dbi(azimuths)
        assert grid.shape == (4, len(codebook))
        for row, azimuth in zip(grid, azimuths):
            assert np.array_equal(row, codebook.gains_dbi(azimuth))

    def test_codebook_grid_subset(self):
        codebook = Codebook.uniform_azimuth(30.0)
        indices = [5, 0, 3]
        grid = codebook.gains_grid_dbi([0.3, -0.4], indices)
        for row, azimuth in zip(grid, [0.3, -0.4]):
            assert np.array_equal(row, codebook.gains_dbi(azimuth, indices))

    def test_station_grid_rows_bit_identical(self):
        station = BaseStation(
            "cellA", Pose(Vec3(0.0, 10.0), heading=-math.pi / 2.0),
            Codebook.uniform_azimuth(20.0),
        )
        bearings = [-0.5, 0.0, 1.2]
        grid = station.tx_gains_grid_dbi(bearings)
        for row, bearing in zip(grid, bearings):
            assert np.array_equal(row, station.tx_gains_dbi(bearing))

    def test_channel_grid_bit_identical_and_stream_equivalent(self):
        def make_channel():
            return Channel(ChannelConfig(), RngRegistry(5))

        # Two stations with different dwell counts, tx poses and powers:
        # rows of the short burst are padded with -inf gain.
        tx_poses = [Pose(Vec3(0.0, 10.0))] * 2 + [Pose(Vec3(50.0, 10.0))] * 2
        tx_powers = [0.0, 0.0, 3.0, 3.0]
        n_dwells = [18, 18, 12, 12]
        poses = [Pose(Vec3(4.0 + k, 0.0), heading=0.1 * k) for k in range(4)]
        links = ["cellA|ue0", "cellA|ue1", "cellB|ue0", "cellB|ue1"]
        rx_gains = [1.0, 2.0, 3.0, 4.0]
        gains = [np.linspace(-5.0, 12.0, n) for n in n_dwells]
        padded = np.full((4, 18), -np.inf)
        for r, row in enumerate(gains):
            padded[r, :len(row)] = row
        grid_channel = make_channel()
        grid = grid_channel.burst_rss_rows_dbm(
            links, 0.25, tx_poses, poses, padded, rx_gains, tx_powers,
            n_dwells,
        )
        loop_channel = make_channel()
        for r in range(4):
            row = loop_channel.burst_rss_dbm(
                links[r], 0.25, tx_poses[r], poses[r], gains[r],
                rx_gains[r], tx_powers[r],
            )
            assert np.array_equal(grid[r, :n_dwells[r]], row)
            assert np.all(grid[r, n_dwells[r]:] == -np.inf)
        # Both channels drew identically from every stream.
        for name in loop_channel._rng_registry.stream_names():
            assert (
                grid_channel._rng_registry.stream(name).bit_generator.state
                == loop_channel._rng_registry.stream(name).bit_generator.state
            )

    def test_link_engine_batch_matches_scalar_loop(self):
        """``measure_burst_multi`` equals ``measure_burst`` per request."""
        def make_deployment():
            deployment = Deployment(DeploymentConfig(master_seed=9))
            # Different sweep lengths, so cellB's rows are padded.
            for cell_id, x, width in (("cellA", 0.0, 20.0), ("cellB", 30.0, 30.0)):
                deployment.add_station(
                    BaseStation(
                        cell_id,
                        Pose(Vec3(x, 10.0), heading=-math.pi / 2.0),
                        Codebook.uniform_azimuth(width), tx_power_dbm=0.0,
                    )
                )
            return deployment

        rx_codebook = Codebook.uniform_azimuth(20.0)
        poses = [Pose(Vec3(6.0 + 2.0 * k, 0.0), heading=0.2 * k) for k in range(4)]
        requests = [
            (
                f"ue{k}",
                poses[k],
                lambda beam, az, p=poses[k]: rx_codebook.gain_dbi(
                    beam, p.world_to_body(az)
                ),
                k % len(rx_codebook),
            )
            for k in range(4)
        ]
        multi_dep = make_deployment()
        groups = [
            (multi_dep.station("cellA"), requests),
            (multi_dep.station("cellB"), []),
            (multi_dep.station("cellB"), requests[1:3]),
        ]
        batched = multi_dep.links.measure_burst_multi(groups, 0.1)
        loop_dep = make_deployment()
        looped = [
            [
                loop_dep.links.measure_burst(
                    loop_dep.station(station.cell_id), mobile_id, pose,
                    gain_fn, rx_beam, 0.1,
                )
                for mobile_id, pose, gain_fn, rx_beam in group
            ]
            for station, group in groups
        ]
        assert batched == looped
        assert any(m.detected for group in batched for m in group)

    def test_empty_request_list(self):
        deployment = Deployment(DeploymentConfig(master_seed=1))
        station = deployment.add_station(
            BaseStation("cellA", Pose(Vec3(0.0, 10.0)),
                        Codebook.uniform_azimuth(30.0))
        )
        assert deployment.links.measure_burst_multi([(station, [])], 0.0) == [[]]
        # No link state, so no link's shadowing stream.
        assert not any(
            name.startswith("shadowing/") for name in deployment.rng.stream_names()
        )


class TestFleetPathEquivalence:
    def test_scalar_and_batch_artifacts_byte_identical(self):
        """Each user run alone — a one-mobile deployment, so every burst
        takes the single-link ``measure_burst`` branch — reproduces its
        row of the batched population run byte for byte."""
        from repro.fleet import build_fleet, run_built_fleet, synthesize_users

        spec = fleet_spec()
        batch = run_fleet_trial(spec)
        alone = []
        for user in synthesize_users(spec):
            run = build_fleet(spec, users=[user])
            assert len(run.deployment.mobiles) == 1
            (result,) = run_built_fleet(run).users
            alone.append(result.to_dict())
        assert canonical_json(alone) == canonical_json(
            [result.to_dict() for result in batch.users]
        )

    def test_repeat_in_process_identical(self):
        first = canonical_json(run_fleet_trial(fleet_spec()).to_dict())
        second = canonical_json(run_fleet_trial(fleet_spec()).to_dict())
        assert first == second


class TestStreetGolden:
    """The production burst path reproduces the committed street fleet."""

    def test_unsharded_byte_identical(self):
        produced = canonical_json(run_fleet_trial(street_golden_spec()).to_dict())
        assert (produced + "\n").encode("utf-8") == GOLDEN_STREET.read_bytes()

    def test_trace_is_never_an_input(self):
        # A fleet records no trace by default; asking for one must not
        # move a byte of the artifact.
        from repro.fleet import build_fleet, run_built_fleet

        run = build_fleet(street_golden_spec(), trace=True)
        produced = canonical_json(run_built_fleet(run).to_dict())
        assert len(run.deployment.trace) > 0
        assert (produced + "\n").encode("utf-8") == GOLDEN_STREET.read_bytes()

    def test_sharded_byte_identical(self, tmp_path):
        from repro.fleet import run_fleet_sharded

        run_fleet_sharded(street_golden_spec(), 4, out_dir=tmp_path, workers=2)
        assert (tmp_path / "fleet.json").read_bytes() == GOLDEN_STREET.read_bytes()


class TestCampaignWorkerEquivalence:
    def test_worker_counts_byte_identical(self, tmp_path):
        from repro.campaign.runner import run_campaign
        from repro.campaign.spec import CampaignSpec

        spec = CampaignSpec(
            name="fleet", experiment="fleet", scenarios=("walk",),
            protocols=("uniform", "mobility-blend"), seeds=2,
            params={"n_users": 4, "duration_s": 1.0},
        )
        cell_bytes = {}
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            run_campaign(spec, out_dir=out, workers=workers)
            cells = sorted((out / "cells").glob("*.json"))
            assert len(cells) == spec.n_cells
            cell_bytes[workers] = {p.name: p.read_bytes() for p in cells}
        assert cell_bytes[1] == cell_bytes[2]


class TestTelemetryByteIdentity:
    """Wall-clock observability must never leak into artifacts."""

    def test_fleet_artifact_identical_across_telemetry_modes(self):
        from repro.obs import Telemetry
        from repro.obs import telemetry as telemetry_mod

        spec_args = dict(n_users=6, seed=13, duration_s=1.0)
        ambient = canonical_json(
            run_fleet_trial(fleet_spec(**spec_args)).to_dict()
        )
        with telemetry_mod.use(telemetry_mod.DISABLED):
            disabled = canonical_json(
                run_fleet_trial(fleet_spec(**spec_args)).to_dict()
            )
        with telemetry_mod.use(Telemetry()) as hub:
            enabled = canonical_json(
                run_fleet_trial(fleet_spec(**spec_args)).to_dict()
            )
        with telemetry_mod.use(Telemetry(record_events=True)):
            recording = canonical_json(
                run_fleet_trial(fleet_spec(**spec_args)).to_dict()
            )
        assert disabled == ambient
        assert enabled == ambient
        assert recording == ambient
        # The enabled run did actually observe the hot paths.
        assert hub.counter("phy.bursts_measured") > 0
        assert "fleet.run" in hub.summary()["spans"]

    def test_campaign_cells_identical_with_and_without_telemetry(self, tmp_path):
        from repro.campaign.runner import run_campaign
        from repro.campaign.spec import CampaignSpec

        spec = CampaignSpec(
            name="fleet", experiment="fleet", scenarios=("walk",),
            protocols=("uniform",), seeds=2,
            params={"n_users": 3, "duration_s": 1.0},
        )
        cell_bytes = {}
        for label, flag in (("plain", False), ("telemetry", True)):
            out = tmp_path / label
            result = run_campaign(spec, out_dir=out, telemetry=flag)
            cells = sorted((out / "cells").glob("*.json"))
            assert len(cells) == spec.n_cells
            cell_bytes[label] = {p.name: p.read_bytes() for p in cells}
            assert (len(result.telemetry) == spec.n_cells) is flag
        assert cell_bytes["plain"] == cell_bytes["telemetry"]

    def test_telemetry_sidecars_do_not_affect_resume(self, tmp_path):
        from repro.campaign.runner import run_campaign
        from repro.campaign.spec import CampaignSpec
        from repro.campaign.store import ArtifactStore

        spec = CampaignSpec(
            name="fleet", experiment="fleet", scenarios=("walk",),
            protocols=("uniform",), seeds=1,
            params={"n_users": 3, "duration_s": 1.0},
        )
        out = tmp_path / "camp"
        run_campaign(spec, out_dir=out, telemetry=True)
        store = ArtifactStore(out)
        assert store.completed_ids() == {
            cell.cell_id for cell in spec.iter_cells()
        }
        resumed = run_campaign(spec, out_dir=out, telemetry=True)
        assert resumed.executed == 0
        assert resumed.skipped == spec.n_cells
        # The stored sidecars still surface on the resumed result.
        assert len(resumed.telemetry) == spec.n_cells


class TestProgressEquivalence:
    """A progress reporter slices the run but never changes a byte."""

    def test_fleet_artifact_identical_with_progress_reporter(self):
        from repro.fleet.progress import FleetProgress

        class Recording(FleetProgress):
            def __init__(self):
                self.builds = []
                self.runs = []
                self.started = None
                self.finished = None

            def on_build(self, built, total):
                self.builds.append((built, total))

            def on_start(self, users, duration_s):
                self.started = (users, duration_s)

            def on_run(self, sim_now_s, duration_s):
                self.runs.append((sim_now_s, duration_s))

            def on_finish(self, users, elapsed_s):
                self.finished = users

        silent = canonical_json(run_fleet_trial(fleet_spec()).to_dict())
        reporter = Recording()
        reported = canonical_json(
            run_fleet_trial(fleet_spec(), reporter).to_dict()
        )
        assert reported == silent
        spec = fleet_spec()
        assert reporter.builds == [
            (k + 1, spec.n_users) for k in range(spec.n_users)
        ]
        assert reporter.started == (spec.n_users, spec.duration_s)
        assert reporter.finished == spec.n_users
        # The run phase ends exactly on the spec duration.
        assert reporter.runs[-1][0] == spec.duration_s


class TestShardedEquivalence:
    """Sharding is an execution detail: merged bytes == unsharded bytes."""

    @pytest.fixture(scope="class")
    def unsharded_bytes(self):
        return canonical_json(run_fleet_trial(fleet_spec()).to_dict())

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_matrix_byte_identical(
        self, shards, workers, unsharded_bytes, tmp_path
    ):
        from repro.fleet import run_fleet_sharded

        out = tmp_path / f"s{shards}w{workers}"
        result = run_fleet_sharded(
            fleet_spec(), shards, out_dir=out, workers=workers
        )
        # Byte-identical regardless of partitioning and pool size.
        merged = (out / "fleet.json").read_text()[:-1]
        assert merged == unsharded_bytes
        assert canonical_json(result.merged.to_dict()) == unsharded_bytes

    def test_shard_artifacts_partition_users(self, tmp_path):
        from repro.fleet import partition_fleet, run_fleet_sharded

        spec = fleet_spec()
        run_fleet_sharded(spec, 3, out_dir=tmp_path, workers=1)
        shard_users = []
        for shard in partition_fleet(spec, 3):
            record = json.loads(
                (tmp_path / "shards" / f"{shard.shard_hash}.json").read_text()
            )
            shard_users.extend(u["user_id"] for u in record["users"])
        assert sorted(shard_users) == [
            f"ue{k:05d}" for k in range(spec.n_users)
        ]

    def test_resume_uses_existing_shards(self, tmp_path):
        from repro.fleet import run_fleet_sharded

        first = run_fleet_sharded(fleet_spec(), 4, out_dir=tmp_path)
        assert first.executed == 4 and first.skipped == 0
        again = run_fleet_sharded(fleet_spec(), 4, out_dir=tmp_path)
        assert again.executed == 0 and again.skipped == 4
        assert canonical_json(again.merged.to_dict()) == canonical_json(
            first.merged.to_dict()
        )

    def test_cli_sharded_fresh_process_identical(self, tmp_path):
        """Fresh-interpreter sharded runs repeat byte-for-byte and match
        the unsharded CLI artifact."""
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        flags = ["--users", "6", "--duration", "1.0", "--seed", "33"]
        merged = []
        for run in range(2):
            out = tmp_path / f"sharded-{run}"
            result = subprocess.run(
                [
                    sys.executable, "-m", "repro", "fleet", "run", *flags,
                    "--shards", "3", "--workers", "2", "--out", str(out),
                    "--quiet",
                ],
                env=env, capture_output=True, text=True,
            )
            assert result.returncode == 0, result.stderr
            merged.append((out / "fleet.json").read_bytes())
        assert merged[0] == merged[1]
        flat = tmp_path / "flat.json"
        result = subprocess.run(
            [
                sys.executable, "-m", "repro", "fleet", "run", *flags,
                "--out", str(flat), "--quiet",
            ],
            env=env, capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        assert flat.read_bytes() == merged[0]


class TestFreshProcessRepeat:
    def test_cli_artifact_byte_identical_across_processes(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        artifacts = []
        for run in range(2):
            out = tmp_path / f"fleet-{run}.json"
            result = subprocess.run(
                [
                    sys.executable, "-m", "repro", "fleet", "run",
                    "--users", "4", "--duration", "1.0", "--seed", "21",
                    "--out", str(out),
                ],
                env=env, capture_output=True, text=True,
            )
            assert result.returncode == 0, result.stderr
            artifacts.append(out.read_bytes())
        assert artifacts[0] == artifacts[1]
        # And the in-process runner agrees with the subprocess bytes.
        from repro.fleet.experiment import fleet_spec_for_cell

        spec = fleet_spec_for_cell(
            "uniform", scenario="walk", seed=21, n_users=4, duration_s=1.0,
            name="fleet",
        )
        in_process = canonical_json(run_fleet_trial(spec).to_dict()) + "\n"
        assert in_process.encode("utf-8") == artifacts[0]
