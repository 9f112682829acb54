"""Tests for the campaign subsystem: spec grids, artifacts, resume.

The heavyweight guarantees — serial-vs-parallel byte identity and
resume-skips-completed — are exercised on small ``search`` grids (the
cheapest experiment kind) so the whole file stays fast.
"""

import json

import pytest

from repro.campaign.aggregate import (
    group_trials,
    load_campaign,
    summarize_campaign,
)
from repro.campaign.progress import ProgressReporter
from repro.campaign.runner import (
    CampaignError,
    CampaignResult,
    decode_payload,
    run_campaign,
    resume_campaign,
)
from repro.campaign.spec import (
    CampaignCell,
    CampaignSpec,
    SpecError,
    build_config,
    canonical_json,
    config_to_overrides,
    load_spec,
)
from repro.campaign.store import ArtifactStore, StoreError
from repro.cli import main
from repro.core.beamsurfer import BeamSurferConfig
from repro.core.config import SilentTrackerConfig
from repro.experiments.fig2a import search_headline


def small_search_spec(**kwargs) -> CampaignSpec:
    defaults = dict(
        name="t-search",
        experiment="search",
        scenarios=("walk",),
        protocols=("narrow", "omni"),
        seeds=2,
        base_seed=100,
        params={"deadline_s": 1.0},
    )
    defaults.update(kwargs)
    return CampaignSpec(**defaults)


def artifact_bytes(out_dir) -> dict:
    cells = sorted((out_dir / "cells").glob("*.json"))
    return {path.name: path.read_bytes() for path in cells}


class RecordingProgress(ProgressReporter):
    def __init__(self):
        self.started = None
        self.cells = []
        self.finished = None

    def on_start(self, total, skipped):
        self.started = (total, skipped)

    def on_cell_done(self, cell, ok, elapsed_s):
        self.cells.append((cell.cell_id, ok))

    def on_finish(self, executed, failed, elapsed_s):
        self.finished = (executed, failed)


class TestSpecExpansion:
    def test_grid_size_and_order(self):
        spec = CampaignSpec(
            name="grid",
            experiment="tracking",
            scenarios=("walk", "vehicular"),
            protocols=("narrow",),
            seeds=3,
            base_seed=10,
            overrides={"a": {}, "b": {"handover_margin_db": 6.0}},
        )
        cells = spec.expand()
        assert spec.n_cells == len(cells) == 2 * 1 * 2 * 3
        # scenario-major, then protocol, then override, then seed
        assert [c.scenario for c in cells[:6]] == ["walk"] * 6
        assert [c.override_label for c in cells[:6]] == ["a", "a", "a", "b", "b", "b"]
        assert [c.seed for c in cells[:3]] == [10, 11, 12]

    def test_rejects_bad_inputs(self):
        with pytest.raises(SpecError):
            small_search_spec(experiment="quantum")
        with pytest.raises(SpecError):
            small_search_spec(seeds=0)
        with pytest.raises(SpecError):
            small_search_spec(scenarios=("flying",))
        with pytest.raises(SpecError):
            small_search_spec(protocols=())
        with pytest.raises(SpecError):
            small_search_spec(overrides={})

    def test_rejects_unknown_protocol_axis_value_at_construction(self):
        # The protocols axis is validated per experiment kind against
        # the registries — a typo fails here, not mid-campaign.
        with pytest.raises(SpecError, match="known: narrow, omni, wide"):
            small_search_spec(protocols=("narrow", "psychic"))
        with pytest.raises(SpecError, match="oracle, reactive, silent-tracker"):
            small_search_spec(experiment="comparison", protocols=("oracel",))

    def test_rejects_duplicate_axis_values(self):
        with pytest.raises(SpecError):
            small_search_spec(protocols=("narrow", "narrow"))
        with pytest.raises(SpecError):
            small_search_spec(scenarios=("walk", "walk"))

    def test_spec_error_is_value_error(self):
        assert issubclass(SpecError, ValueError)

    def test_spec_roundtrip_through_json_file(self, tmp_path):
        spec = small_search_spec()
        path = tmp_path / "spec.json"
        path.write_text(canonical_json(spec.to_dict()), encoding="utf-8")
        loaded = load_spec(path)
        assert loaded == spec
        assert loaded.spec_hash == spec.spec_hash


class TestCellIds:
    def test_golden_id_stable(self):
        """Cell IDs must never drift: they name on-disk artifacts."""
        cell = small_search_spec(protocols=("narrow",), seeds=1).expand()[0]
        assert cell.cell_id == "b9564805432c0c12"

    def test_id_excludes_campaign_name(self):
        a = small_search_spec(name="first").expand()
        b = small_search_spec(name="second").expand()
        assert [c.cell_id for c in a] == [c.cell_id for c in b]

    def test_id_depends_on_content(self):
        base = small_search_spec(protocols=("narrow",), seeds=1).expand()[0]
        other_seed = small_search_spec(
            protocols=("narrow",), seeds=1, base_seed=101
        ).expand()[0]
        other_params = small_search_spec(
            protocols=("narrow",), seeds=1, params={"deadline_s": 2.0}
        ).expand()[0]
        assert base.cell_id != other_seed.cell_id
        assert base.cell_id != other_params.cell_id

    def test_ids_unique_across_grid(self):
        cells = small_search_spec(seeds=3).expand()
        assert len({c.cell_id for c in cells}) == len(cells)

    def test_cell_dict_roundtrip(self):
        cell = small_search_spec().expand()[0]
        clone = CampaignCell.from_dict(json.loads(json.dumps(cell.to_dict())))
        assert clone == cell
        assert clone.cell_id == cell.cell_id


class TestConfigOverrides:
    def test_roundtrip(self):
        config = SilentTrackerConfig(
            handover_margin_db=6.0,
            beamsurfer=BeamSurferConfig(adapt_threshold_db=2.0),
        )
        rebuilt = build_config(config_to_overrides(config))
        assert rebuilt == config

    def test_empty_overrides_mean_default(self):
        assert build_config({}) is None
        assert build_config(None) is None

    def test_unknown_field_rejected(self):
        with pytest.raises(TypeError):
            build_config({"no_such_knob": 1.0})


class TestRunCampaign:
    def test_in_memory_run_aggregates(self):
        result = run_campaign(small_search_spec())
        assert isinstance(result, CampaignResult)
        assert result.executed == 4
        assert result.skipped == 0
        arms = group_trials(result.results_in_order(), "protocol")
        assert set(arms) == {"narrow", "omni"}
        assert len(arms["narrow"]) == 2
        headlines = {kind: search_headline(trials) for kind, trials in arms.items()}
        assert (
            headlines["narrow"]["successes_per_trial"]
            >= headlines["omni"]["successes_per_trial"]
        )

    def test_matches_direct_trials(self):
        from repro.experiments.fig2a import run_search_trial

        result = run_campaign(small_search_spec(protocols=("narrow",)))
        campaign_trials = [
            decode_payload(cell.experiment, payload)
            for cell, payload in result.results_in_order()
        ]
        direct = [
            run_search_trial("narrow", scenario="walk", seed=100 + k)
            for k in range(2)
        ]
        assert campaign_trials == direct

    def test_tracking_payload_roundtrips_outcome(self):
        from repro.experiments.fig2c import run_fig2c, run_tracking_trial

        results = run_fig2c(n_trials=2, base_seed=200)
        direct = [
            run_tracking_trial("vehicular", seed=200 + k) for k in range(2)
        ]
        assert results["vehicular"]["trials"] == direct

    @pytest.fixture()
    def exploding_codebook(self):
        # Registered (so spec validation passes) but raising at trial
        # time: the way a cell can still fail mid-run.
        from repro.registry import CODEBOOKS

        @CODEBOOKS.register("exploding")
        def _exploding():
            raise ValueError("exploding codebook")

        yield "exploding"
        CODEBOOKS.unregister("exploding")

    def test_failed_cells_collected_not_fatal_to_others(
        self, tmp_path, exploding_codebook
    ):
        spec = small_search_spec(
            protocols=("narrow", exploding_codebook), seeds=1
        )
        with pytest.raises(CampaignError) as excinfo:
            run_campaign(spec, out_dir=tmp_path / "camp")
        assert len(excinfo.value.failures) == 1
        # the healthy arm's artifact was still written
        assert len(artifact_bytes(tmp_path / "camp")) == 1

    def test_rejects_zero_workers(self):
        with pytest.raises(CampaignError):
            run_campaign(small_search_spec(), workers=0)

    def test_failure_carries_traceback(self, exploding_codebook):
        spec = small_search_spec(protocols=(exploding_codebook,), seeds=1)
        with pytest.raises(CampaignError) as excinfo:
            run_campaign(spec)
        (trace,) = excinfo.value.failures.values()
        assert "Traceback" in trace
        assert "ValueError" in trace


class TestDeterminismAndResume:
    @pytest.fixture(scope="class")
    def serial_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("serial") / "camp"
        run_campaign(small_search_spec(), out_dir=out, workers=1)
        return out

    def test_parallel_artifacts_byte_identical(
        self, serial_dir, tmp_path_factory
    ):
        out = tmp_path_factory.mktemp("parallel") / "camp"
        run_campaign(small_search_spec(), out_dir=out, workers=2)
        assert artifact_bytes(out) == artifact_bytes(serial_dir)

    def test_resume_skips_completed_cells(self, serial_dir, tmp_path_factory):
        out = tmp_path_factory.mktemp("resume") / "camp"
        spec = small_search_spec()
        run_campaign(spec, out_dir=out, workers=1)
        before = artifact_bytes(out)
        victims = sorted((out / "cells").glob("*.json"))[::2]
        for victim in victims:
            victim.unlink()
        progress = RecordingProgress()
        result = run_campaign(spec, out_dir=out, workers=1, progress=progress)
        assert result.skipped == len(before) - len(victims)
        assert result.executed == len(victims)
        executed_ids = {cell_id for cell_id, _ in progress.cells}
        assert executed_ids == {victim.stem for victim in victims}
        assert artifact_bytes(out) == before

    def test_resume_campaign_reads_manifest(self, serial_dir):
        progress = RecordingProgress()
        result = resume_campaign(serial_dir, progress=progress)
        assert result.executed == 0
        assert result.skipped == 4
        assert progress.started == (4, 4)
        assert len(result.payloads) == 4

    def test_corrupt_artifact_rerun(self, serial_dir, tmp_path_factory):
        out = tmp_path_factory.mktemp("corrupt") / "camp"
        spec = small_search_spec()
        run_campaign(spec, out_dir=out)
        before = artifact_bytes(out)
        victim = sorted((out / "cells").glob("*.json"))[0]
        victim.write_text("{not json", encoding="utf-8")
        result = run_campaign(spec, out_dir=out)
        assert result.executed == 1
        assert artifact_bytes(out) == before

    def test_mismatched_spec_refused(self, serial_dir):
        other = small_search_spec(base_seed=999)
        with pytest.raises(StoreError):
            run_campaign(other, out_dir=serial_dir)

    def test_load_campaign_roundtrip(self, serial_dir):
        spec, pairs = load_campaign(serial_dir)
        assert spec.spec_hash == small_search_spec().spec_hash
        assert len(pairs) == 4
        headers, rows = summarize_campaign(spec, pairs)
        assert headers[:3] == ["scenario", "protocol", "override"]
        assert len(rows) == 2  # narrow + omni arms


class TestStore:
    def test_initialize_twice_same_spec_ok(self, tmp_path):
        store = ArtifactStore(tmp_path / "camp")
        spec = small_search_spec()
        store.initialize(spec)
        store.initialize(spec)
        assert store.load_spec() == spec

    def test_load_spec_without_manifest(self, tmp_path):
        with pytest.raises(StoreError):
            ArtifactStore(tmp_path / "nowhere").load_spec()

    def test_artifact_id_mismatch_treated_missing(self, tmp_path):
        store = ArtifactStore(tmp_path / "camp")
        spec = small_search_spec(seeds=1, protocols=("narrow",))
        store.initialize(spec)
        cell = spec.expand()[0]
        path = store.write_cell(cell, {"ok": 1})
        assert store.completed_ids() == {cell.cell_id}
        renamed = path.with_name("0000000000000000.json")
        path.rename(renamed)
        assert store.completed_ids() == set()


class TestWorkloadCampaign:
    def test_sweep_matches_one_shot(self):
        from repro.experiments.workloads import generate_rss_trace

        spec = CampaignSpec(
            name="workload",
            experiment="workload",
            scenarios=("walk",),
            protocols=("best",),
            seeds=1,
            base_seed=3,
            params={"duration_s": 0.5},
        )
        [(cell, payload)] = run_campaign(spec).results_in_order()
        trace = decode_payload(cell.experiment, payload)
        direct = generate_rss_trace(
            scenario="walk", seed=3, duration_s=0.5, rx_beam_policy="best"
        )
        assert trace == direct


class TestCampaignCli:
    def test_run_and_summarize(self, tmp_path, capsys):
        out = tmp_path / "camp"
        code = main(
            [
                "campaign", "run",
                "--experiment", "search",
                "--scenarios", "walk",
                "--protocols", "narrow",
                "--seeds", "1",
                "--base-seed", "50",
                "--out", str(out),
                "--quiet",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "campaign" in output
        assert "narrow" in output
        assert (out / "manifest.json").exists()

        assert main(["campaign", "summarize", "--out", str(out)]) == 0
        assert "1/1 cells" in capsys.readouterr().out

        assert main(["campaign", "resume", "--out", str(out), "--quiet"]) == 0
        assert "1/1 cells" in capsys.readouterr().out

    def test_summarize_marks_soft_unknown_without_completions(
        self, tmp_path, capsys
    ):
        # The omni codebook never completes a walk handover, so its soft
        # ratio has no denominator: "-", not the 0.000 of all-hard arms.
        out = tmp_path / "camp"
        assert main([
            "campaign", "run", "--experiment", "tracking",
            "--scenarios", "walk", "--protocols", "omni", "--seeds", "2",
            "--out", str(out), "--quiet",
        ]) == 0
        capsys.readouterr()
        assert main(["campaign", "summarize", "--out", str(out)]) == 0
        rows = [
            [cell.strip() for cell in line.strip("|").split("|")]
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("|")
        ]
        headers, [row] = rows[0], rows[1:]
        assert row[headers.index("completion")] == "0.000"
        assert row[headers.index("soft")] == "-"

    def test_run_from_spec_file(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec = small_search_spec(seeds=1, protocols=("narrow",))
        spec_path.write_text(canonical_json(spec.to_dict()), encoding="utf-8")
        assert main(["campaign", "run", "--spec", str(spec_path), "--quiet"]) == 0
        assert "t-search" in capsys.readouterr().out

    def test_run_requires_spec_or_experiment(self):
        with pytest.raises(SystemExit):
            main(["campaign", "run", "--quiet"])

    def test_user_errors_exit_2_without_traceback(self, tmp_path, capsys):
        code = main(["campaign", "resume", "--out", str(tmp_path / "nope")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "no campaign manifest" in captured.err
