"""The repro.fleet subsystem: specs, synthesis, runs, metrics, CLI."""

import json

import pytest

from repro.campaign.spec import CampaignSpec, SpecError, canonical_json
from repro.fleet import (
    FleetSpec,
    FleetTrialResult,
    UserProfile,
    build_fleet,
    load_fleet_artifact,
    run_fleet_trial,
    synthesize_users,
    write_fleet_artifact,
)
from repro.fleet.experiment import (
    FLEET_MIXES,
    fleet_spec_for_cell,
    mix_names,
)


def small_spec(n_users=6, seed=3, duration_s=1.5, **kwargs):
    profiles = kwargs.pop(
        "profiles",
        (
            UserProfile("walkers", weight=0.7, scenario="walk",
                        start_jitter_s=0.3),
            UserProfile("drivers", weight=0.3, scenario="vehicular"),
        ),
    )
    return FleetSpec(
        "test-fleet", n_users=n_users, profiles=profiles, seed=seed,
        duration_s=duration_s, **kwargs
    )


class TestSpecValidation:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(SpecError):
            UserProfile("p", scenario="warp-drive")

    def test_unknown_codebook_rejected(self):
        with pytest.raises(SpecError):
            UserProfile("p", codebook="laser")

    def test_unknown_protocol_rejected(self):
        with pytest.raises(SpecError):
            UserProfile("p", protocol="oracel")

    def test_negative_weight_rejected(self):
        with pytest.raises(SpecError):
            UserProfile("p", weight=0.0)

    def test_bad_spawn_interval_rejected(self):
        with pytest.raises(SpecError):
            UserProfile("p", spawn_x=(10.0, 4.0))

    def test_needs_users_and_profiles(self):
        with pytest.raises(SpecError):
            FleetSpec("f", n_users=0, profiles=(UserProfile("p"),))
        with pytest.raises(SpecError):
            FleetSpec("f", n_users=1, profiles=())

    @pytest.mark.parametrize("duration_s", [float("nan"), float("inf")])
    def test_non_finite_duration_rejected(self, duration_s):
        with pytest.raises(SpecError, match="finite"):
            small_spec(duration_s=duration_s)

    def test_duplicate_profile_names_rejected(self):
        with pytest.raises(SpecError):
            FleetSpec(
                "f", n_users=1,
                profiles=(UserProfile("p"), UserProfile("p", weight=2.0)),
            )

    def test_roundtrip(self):
        spec = small_spec()
        again = FleetSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.fleet_hash == spec.fleet_hash

    def test_save_load(self, tmp_path):
        from repro.fleet import load_spec

        spec = small_spec()
        path = tmp_path / "fleet.json"
        path.write_text(canonical_json(spec.to_dict()), encoding="utf-8")
        assert load_spec(path) == spec


class TestHashing:
    def test_name_not_part_of_hash(self):
        a = small_spec()
        b = FleetSpec("other-name", n_users=a.n_users, profiles=a.profiles,
                      seed=a.seed, duration_s=a.duration_s)
        assert a.fleet_hash == b.fleet_hash

    def test_seed_changes_hash(self):
        assert small_spec(seed=3).fleet_hash != small_spec(seed=4).fleet_hash

    def test_population_changes_hash(self):
        assert (
            small_spec(n_users=6).fleet_hash != small_spec(n_users=7).fleet_hash
        )


class TestSynthesis:
    def test_deterministic(self):
        assert synthesize_users(small_spec()) == synthesize_users(small_spec())

    def test_user_count_and_ids(self):
        users = synthesize_users(small_spec(n_users=12))
        assert len(users) == 12
        assert [u.index for u in users] == list(range(12))
        assert len({u.user_id for u in users}) == 12

    def test_user_seeds_distinct(self):
        users = synthesize_users(small_spec(n_users=32))
        assert len({u.seed for u in users}) == 32

    def test_profiles_sampled_by_weight(self):
        spec = small_spec(n_users=400)
        users = synthesize_users(spec)
        walkers = sum(1 for u in users if u.profile == "walkers")
        assert 0.55 < walkers / len(users) < 0.85

    def test_spawn_region_respected(self):
        spec = FleetSpec(
            "f", n_users=50,
            profiles=(UserProfile("p", spawn_x=(8.0, 12.0)),), seed=1,
        )
        for user in synthesize_users(spec):
            assert 8.0 <= user.start_x <= 12.0

    def test_serving_cell_is_nearest(self):
        spec = FleetSpec(
            "f", n_users=40, profiles=(UserProfile("p", spawn_x=(0.0, 40.0)),),
            seed=2,
        )
        for user in synthesize_users(spec):
            if user.start_x < 10.0:
                assert user.serving_cell == "cellA"
            elif user.start_x > 30.0:
                assert user.serving_cell == "cellC"

    def test_jitter_within_bound(self):
        spec = FleetSpec(
            "f", n_users=30,
            profiles=(UserProfile("p", start_jitter_s=0.4),), seed=5,
        )
        offsets = [u.start_offset_s for u in synthesize_users(spec)]
        assert all(0.0 <= o <= 0.4 for o in offsets)
        assert any(o > 0.0 for o in offsets)

    def test_seed_changes_population(self):
        a = synthesize_users(small_spec(seed=3))
        b = synthesize_users(small_spec(seed=4))
        assert [u.start_x for u in a] != [u.start_x for u in b]


class TestBuildFleet:
    def test_population_materialized(self):
        run = build_fleet(small_spec())
        assert len(run.mobiles) == 6
        assert len(run.protocols) == 6
        assert len(run.deployment.mobiles) == 6

    def test_distinct_trajectories(self):
        run = build_fleet(small_spec(n_users=4))
        poses = {
            (m.pose_at(0.5).position.x, m.pose_at(0.5).position.y)
            for m in run.mobiles
        }
        assert len(poses) == 4


class TestRunFleetTrial:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fleet_trial(small_spec(n_users=8, duration_s=2.0))

    def test_one_result_per_user(self, result):
        assert len(result.users) == 8
        assert result.aggregates["totals"]["users"] == 8

    def test_population_measured(self, result):
        assert result.aggregates["totals"]["bursts_measured"] > 100
        assert all(u.bursts_measured > 0 for u in result.users)

    def test_summary_sections(self, result):
        summary = result.aggregates["summary"]
        for key in (
            "search_latency_s",
            "completion_time_s",
            "handover_rate_per_min",
            "ping_pong_rate_per_min",
            "outage_fraction",
        ):
            assert "count" in summary[key]
        assert summary["outage_fraction"]["count"] == 8

    def test_cdf_sections(self, result):
        cdf = result.aggregates["cdf"]["outage_fraction"]
        assert cdf is not None
        assert len(cdf["xs"]) == len(cdf["ps"]) == 8
        assert cdf["ps"][-1] == 1.0

    def test_payload_roundtrip(self, result):
        payload = json.loads(canonical_json(result.to_dict()))
        again = FleetTrialResult.from_dict(payload)
        assert canonical_json(again.to_dict()) == canonical_json(result.to_dict())

    def test_artifact_roundtrip(self, result, tmp_path):
        path = write_fleet_artifact(result, tmp_path / "fleet.json")
        again = load_fleet_artifact(path)
        assert canonical_json(again.to_dict()) == canonical_json(result.to_dict())


class TestExperimentKind:
    def test_registered(self):
        from repro.registry import EXPERIMENTS

        kind = EXPERIMENTS.get("fleet")
        assert kind.protocol_axis == "profile mix"
        assert set(kind.default_protocols) <= set(mix_names())

    def test_builtin_mixes_present(self):
        assert {"uniform", "mobility-blend", "codebook-split"} <= set(FLEET_MIXES)

    def test_unknown_mix_rejected(self):
        with pytest.raises(SpecError):
            fleet_spec_for_cell("rush-hour", scenario="walk", seed=0)

    def test_mix_uses_cell_scenario(self):
        spec = fleet_spec_for_cell("uniform", scenario="vehicular", seed=1)
        assert spec.profiles[0].scenario == "vehicular"

    def test_run_trial_envelope(self):
        from repro.api import run_trial

        result = run_trial(
            "fleet", scenario="walk", seed=2, arm="uniform",
            params={"n_users": 3, "duration_s": 1.0},
        )
        assert result.experiment == "fleet"
        assert isinstance(result.payload, FleetTrialResult)
        assert result.payload.aggregates["totals"]["users"] == 3

    def test_campaign_grid(self, tmp_path):
        from repro.campaign.runner import decode_payload, run_campaign

        spec = CampaignSpec(
            name="fleet", experiment="fleet", scenarios=("walk",),
            protocols=("uniform",), seeds=2,
            params={"n_users": 3, "duration_s": 1.0},
        )
        result = run_campaign(spec, out_dir=tmp_path / "campaign")
        assert len(result.payloads) == 2
        trials = [
            decode_payload(cell.experiment, payload)
            for cell, payload in result.results_in_order()
        ]
        assert all(t.aggregates["totals"]["users"] == 3 for t in trials)

    def test_campaign_summary_table(self):
        from repro.campaign.aggregate import summarize_campaign
        from repro.campaign.runner import run_campaign

        spec = CampaignSpec(
            name="fleet", experiment="fleet", scenarios=("walk",),
            protocols=("uniform",), seeds=1,
            params={"n_users": 3, "duration_s": 1.0},
        )
        result = run_campaign(spec)
        headers, rows = summarize_campaign(spec, result.results_in_order())
        assert "users" in headers
        assert rows and rows[0][headers.index("users")] == 3


class TestFleetCli:
    def test_run_and_summarize(self, tmp_path, capsys):
        from repro.cli import main

        artifact = tmp_path / "fleet.json"
        assert main([
            "fleet", "run", "--users", "4", "--duration", "1.0",
            "--seed", "9", "--out", str(artifact),
        ]) == 0
        out = capsys.readouterr().out
        assert "4 users" in out
        assert artifact.exists()
        assert main(["fleet", "summarize", "--artifact", str(artifact)]) == 0
        assert "4 users" in capsys.readouterr().out

    def test_spec_file_run(self, tmp_path, capsys):
        from repro.cli import main

        spec_path = tmp_path / "spec.json"
        spec = small_spec(n_users=3, duration_s=1.0)
        spec_path.write_text(canonical_json(spec.to_dict()), encoding="utf-8")
        assert main(["fleet", "run", "--spec", str(spec_path)]) == 0
        assert "3 users" in capsys.readouterr().out

    def test_unknown_mix_exits_2(self, capsys):
        from repro.cli import main

        assert main(["fleet", "run", "--mix", "rush-hour"]) == 2
        assert "unknown fleet mix" in capsys.readouterr().err

    def test_missing_artifact_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        missing = str(tmp_path / "nope.json")
        assert main(["fleet", "summarize", "--artifact", missing]) == 2
        assert "error:" in capsys.readouterr().err
        assert main(["fleet", "run", "--spec", missing]) == 2
        assert "error:" in capsys.readouterr().err

    def test_not_a_fleet_artifact_exits_2(self, tmp_path, capsys):
        # Valid JSON that is not a fleet artifact must be an
        # operational error, not a KeyError traceback.
        from repro.cli import main

        bogus = tmp_path / "bogus.json"
        bogus.write_text("{}", encoding="utf-8")
        assert main(["fleet", "summarize", "--artifact", str(bogus)]) == 2
        assert "not a fleet artifact" in capsys.readouterr().err


class TestShardPartition:
    def test_partition_covers_population_disjointly(self):
        from repro.fleet import partition_fleet

        spec = small_spec(n_users=24)
        shards = partition_fleet(spec, 5)
        seen = []
        for shard in shards:
            seen.extend(shard.user_indices())
        assert sorted(seen) == list(range(24))

    def test_assignment_is_order_independent(self):
        """Shard membership depends only on the user's derived seed."""
        from repro.fleet import partition_fleet
        from repro.fleet.spec import user_seed

        spec = small_spec(n_users=16)
        for shard in partition_fleet(spec, 4):
            for index in shard.user_indices():
                assert (
                    user_seed(spec.fleet_hash, index) % 4
                    == shard.shard_index
                )

    def test_shard_synthesis_matches_full_synthesis(self):
        from repro.fleet import partition_fleet

        spec = small_spec(n_users=12)
        full = {user.user_id: user for user in synthesize_users(spec)}
        for shard in partition_fleet(spec, 3):
            for user in shard.synthesize():
                assert user == full[user.user_id]

    def test_shard_hashes_distinct_and_stable(self):
        from repro.fleet import partition_fleet

        spec = small_spec()
        hashes = [s.shard_hash for s in partition_fleet(spec, 3)]
        assert len(set(hashes)) == 3
        assert hashes == [s.shard_hash for s in partition_fleet(spec, 3)]

    def test_invalid_shard_counts_rejected(self):
        from repro.fleet import partition_fleet

        spec = small_spec(n_users=4)
        with pytest.raises(SpecError):
            partition_fleet(spec, 0)
        with pytest.raises(SpecError):
            partition_fleet(spec, -1)
        with pytest.raises(SpecError):
            partition_fleet(spec, 5)

    def test_shard_round_trip(self):
        from repro.fleet import FleetShard, partition_fleet

        shard = partition_fleet(small_spec(), 2)[1]
        clone = FleetShard.from_dict(shard.to_dict())
        assert clone.shard_hash == shard.shard_hash
        assert clone.user_indices() == shard.user_indices()


class TestFleetAccumulator:
    def test_exact_aggregates_match_aggregate_users(self):
        from repro.fleet import FleetAccumulator, aggregate_users
        from repro.fleet.metrics import user_result
        from repro.fleet.runner import run_built_fleet

        spec = small_spec(n_users=5, duration_s=1.0)
        trial = run_fleet_trial(spec)
        accumulator = FleetAccumulator(spec.duration_s)
        accumulator.add_users(trial.users)
        assert accumulator.aggregates() == trial.aggregates

    def test_merge_matches_single_pass(self):
        from repro.fleet import FleetAccumulator

        spec = small_spec(n_users=8, duration_s=1.0)
        trial = run_fleet_trial(spec)
        whole = FleetAccumulator(spec.duration_s)
        whole.add_users(trial.users)
        left = FleetAccumulator(spec.duration_s)
        left.add_users(trial.users[:3])
        right = FleetAccumulator(spec.duration_s)
        right.add_users(trial.users[3:])
        left.merge(right)
        assert left.aggregates() == whole.aggregates()

    def test_streaming_marks_inexact_but_totals_match(self):
        from repro.fleet import FleetAccumulator

        spec = small_spec(n_users=8, duration_s=1.0)
        trial = run_fleet_trial(spec)
        bounded = FleetAccumulator(spec.duration_s, capacity=8)
        bounded.add_users(trial.users)
        aggregates = bounded.aggregates()
        assert aggregates["totals"] == trial.aggregates["totals"]
        for key, summary in aggregates["summary"].items():
            assert summary["count"] == trial.aggregates["summary"][key]["count"]

    def test_mismatched_merge_rejected(self):
        from repro.fleet import FleetAccumulator

        base = FleetAccumulator(2.0)
        with pytest.raises(SpecError):
            base.merge(FleetAccumulator(3.0))
        with pytest.raises(SpecError):
            base.merge(FleetAccumulator(2.0, capacity=16))


class TestShardStore:
    def test_initialize_refuses_different_sharding(self, tmp_path):
        from repro.campaign.store import StoreError
        from repro.fleet import run_fleet_sharded

        spec = small_spec()
        run_fleet_sharded(spec, 2, out_dir=tmp_path)
        # Same arithmetic is the resume path.
        assert run_fleet_sharded(spec, 2, out_dir=tmp_path).executed == 0
        with pytest.raises(StoreError):
            run_fleet_sharded(spec, 2, out_dir=tmp_path, stream=True)
        with pytest.raises(StoreError):
            run_fleet_sharded(spec, 3, out_dir=tmp_path)

    def test_completed_hashes_ignores_corrupt_and_sidecars(self, tmp_path):
        from repro.fleet.runner import _shard_store

        store = _shard_store(tmp_path)
        store.write("abc123", {"shard_hash": "abc123"})
        store.write_telemetry("abc123", {"spans": {}})
        assert store.telemetry_path("abc123") == tmp_path / "telemetry" / "abc123.json"
        (tmp_path / "shards" / "broken.json").write_text("{nope")
        (tmp_path / "shards" / "wronghash.json").write_text(
            json.dumps({"shard_hash": "other"})
        )
        # A sidecar left next to the shards by an older layout is no
        # shard: its recorded hash does not match its name.
        (tmp_path / "shards" / "abc123.telemetry.json").write_text(
            json.dumps({"spans": {}}, sort_keys=True)
        )
        assert store.completed() == {"abc123"}


class TestShardedRunner:
    def test_failed_shard_raises_with_traceback(self, tmp_path, monkeypatch):
        from repro.fleet import FleetError, run_fleet_sharded
        from repro.fleet import runner as runner_mod

        def boom(shard, stream=False, capacity=None, progress=None):
            raise RuntimeError("shard exploded")

        monkeypatch.setattr(runner_mod, "run_shard", boom)
        with pytest.raises(FleetError) as excinfo:
            run_fleet_sharded(small_spec(), 2, out_dir=tmp_path)
        assert "shard exploded" in str(excinfo.value)
        assert len(excinfo.value.failures) == 2

    def test_invalid_workers_rejected(self):
        from repro.fleet import FleetError, run_fleet_sharded

        with pytest.raises(FleetError):
            run_fleet_sharded(small_spec(), 2, workers=0)

    def test_streaming_run_drops_users_and_artifact_is_canonical(
        self, tmp_path
    ):
        from repro.fleet import load_sharded_fleet, run_fleet_sharded

        spec = small_spec(n_users=6, duration_s=1.0)
        result = run_fleet_sharded(spec, 2, out_dir=tmp_path, stream=True)
        assert result.stream is True
        assert result.merged.users is None
        record = json.loads((tmp_path / "fleet.json").read_text())
        assert record["users"] is None
        assert record["aggregates"]["exact"] is True
        full = run_fleet_sharded(spec, 2, stream=False)
        assert result.merged.aggregates == full.merged.aggregates
        loaded = load_sharded_fleet(tmp_path)
        assert loaded.aggregates == result.merged.aggregates

    def test_load_sharded_fleet_incomplete_raises(self, tmp_path):
        from repro.campaign.store import StoreError
        from repro.fleet import load_sharded_fleet, run_fleet_sharded

        run_fleet_sharded(small_spec(), 3, out_dir=tmp_path)
        (tmp_path / "fleet.json").unlink()
        shard_files = sorted((tmp_path / "shards").glob("*.json"))
        shard_files[0].unlink()
        with pytest.raises(StoreError, match="incomplete"):
            load_sharded_fleet(tmp_path)

    def test_shard_progress_events_aggregate(self, tmp_path):
        from repro.fleet import run_fleet_sharded
        from repro.fleet.progress import FleetProgress

        class Recording(FleetProgress):
            def __init__(self):
                self.shards_done = []
                self.runs = []
                self.finished = None

            def on_run(self, sim_now_s, duration_s):
                self.runs.append(sim_now_s)

            def on_shard_done(self, done, total, elapsed_s):
                self.shards_done.append((done, total))

            def on_finish(self, users, elapsed_s):
                self.finished = users

        reporter = Recording()
        spec = small_spec(n_users=6, duration_s=1.0)
        run_fleet_sharded(spec, 3, out_dir=tmp_path, progress=reporter)
        assert reporter.shards_done == [(1, 3), (2, 3), (3, 3)]
        assert reporter.finished == spec.n_users
        assert reporter.runs  # run-phase events were aggregated


class TestShardedCli:
    def _flags(self):
        return ["fleet", "run", "--users", "6", "--duration", "1.0",
                "--quiet"]

    def test_shards_below_one_exits_2(self, capsys):
        from repro.cli import main

        assert main([*self._flags(), "--shards", "0"]) == 2
        assert "n_shards must be >= 1" in capsys.readouterr().err

    def test_shards_above_users_exits_2(self, capsys):
        from repro.cli import main

        assert main([*self._flags(), "--shards", "7"]) == 2
        assert "cannot split" in capsys.readouterr().err

    def test_workers_without_shards_exits_2(self, capsys):
        from repro.cli import main

        assert main([*self._flags(), "--workers", "2"]) == 2
        assert "--workers requires --shards" in capsys.readouterr().err

    def test_sharded_run_and_summarize_directory(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "sharded"
        assert main([*self._flags(), "--shards", "2", "--telemetry",
                     "--out", str(out)]) == 0
        run_output = capsys.readouterr().out
        assert "6 users" in run_output
        assert "hottest telemetry spans" in run_output
        assert (out / "manifest.json").exists()
        assert (out / "fleet.json").exists()
        assert len(list((out / "telemetry").glob("*.json"))) == 2
        assert main(["fleet", "summarize", "--artifact", str(out)]) == 0
        summary = capsys.readouterr().out
        assert "6 users" in summary
        # The per-shard sidecars fold into the summarize view.
        assert "hottest telemetry spans" in summary

    def test_obs_top_reads_shard_sidecars(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "sharded"
        assert main([*self._flags(), "--shards", "2", "--telemetry",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["obs", "top", str(out)]) == 0
        assert "fleet.run" in capsys.readouterr().out
