"""Tests for the run ledger (``repro.obs.ledger``) and its CLI verbs."""

import json
import multiprocessing
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs import ObsError
from repro.obs.ledger import (
    LEDGER_FORMAT,
    RunLedger,
    record_run,
    regress_failures,
)


def _entry(name="run", duration=1.0, **extra):
    entry = {"kind": "fleet", "name": name, "duration_s": duration,
             "status": "ok"}
    entry.update(extra)
    return entry


def _append_many(path, tag, count, start):
    start.wait()
    ledger = RunLedger(path, max_entries=8)
    for index in range(count):
        ledger.append(_entry(f"{tag}-{index}"))


class TestAppendScan:
    def test_append_assigns_run_id_and_roundtrips(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs.jsonl")
        run_id = ledger.append(_entry("a"))
        assert run_id.startswith("r")
        entries, corrupt = ledger.scan()
        assert corrupt == 0
        assert [e["name"] for e in entries] == ["a"]
        assert entries[0]["run_id"] == run_id
        assert entries[0]["format"] == LEDGER_FORMAT

    def test_entries_are_one_json_line_each(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        ledger = RunLedger(path)
        ledger.append(_entry("a"))
        ledger.append(_entry("b"))
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            json.loads(line)  # every line is standalone JSON

    def test_distinct_entries_get_distinct_ids(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs.jsonl")
        ids = {ledger.append(_entry("a", started_at=float(i)))
               for i in range(5)}
        assert len(ids) == 5

    def test_rotation_keeps_one_generation(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        ledger = RunLedger(path, max_entries=2)
        for index in range(5):
            ledger.append(_entry(f"run-{index}", started_at=float(index)))
        assert ledger.rotated_path.exists()
        # All five entries survive across current + rotated generations?
        # No: rotation drops the oldest generation; the window holds the
        # most recent <= 2*max_entries entries, oldest first.
        names = [e["name"] for e in ledger.entries()]
        assert names == [f"run-{i}" for i in range(5 - len(names), 5)]
        assert 2 <= len(names) <= 4
        assert names[-1] == "run-4"

    def test_concurrent_appends_across_rotation(self, tmp_path):
        # Two writers that both see a full ledger must not both rotate:
        # the second rotation would move the first one's fresh file
        # over runs.jsonl.1 and drop a whole generation.
        path = tmp_path / "runs.jsonl"
        context = multiprocessing.get_context("fork")
        start = context.Event()
        writers = [
            context.Process(target=_append_many, args=(path, tag, 100, start))
            for tag in ("a", "b")
        ]
        for writer in writers:
            writer.start()
        start.set()
        for writer in writers:
            writer.join(timeout=60)
            assert writer.exitcode == 0
        ledger = RunLedger(path, max_entries=8)
        assert len(ledger.rotated_path.read_text().splitlines()) == 8
        assert len(path.read_text().splitlines()) <= 8
        entries, corrupt = ledger.scan()
        assert corrupt == 0
        ids = [entry["run_id"] for entry in entries]
        assert len(ids) == len(set(ids))

    def test_corrupt_tail_is_skipped_and_counted(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        ledger = RunLedger(path)
        ledger.append(_entry("good"))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "fleet", "name": "torn", "dur')  # killed writer
        entries, corrupt = ledger.scan()
        assert [e["name"] for e in entries] == ["good"]
        assert corrupt == 1
        # Appends keep working after the torn line.
        run_id = ledger.append(_entry("after"))
        entries, corrupt = ledger.scan()
        assert [e["name"] for e in entries] == ["good", "after"]
        assert corrupt == 1
        assert entries[-1]["run_id"] == run_id

    def test_non_dict_lines_count_as_corrupt(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text('[1, 2]\n{"no_run_id": true}\n')
        entries, corrupt = RunLedger(path).scan()
        assert entries == []
        assert corrupt == 2


class TestFind:
    def test_exact_and_prefix(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs.jsonl")
        run_id = ledger.append(_entry("a"))
        assert ledger.find(run_id)["name"] == "a"
        assert ledger.find(run_id[:5])["name"] == "a"

    def test_missing_and_ambiguous_are_loud(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs.jsonl")
        with pytest.raises(ObsError, match="no run"):
            ledger.find("nope")
        ledger.append(_entry("a", started_at=1.0))
        ledger.append(_entry("b", started_at=2.0))
        with pytest.raises(ObsError, match="ambiguous"):
            ledger.find("r")  # every run ID starts with "r"


class TestRecordRun:
    def test_successful_run_recorded(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs.jsonl")
        with record_run(ledger, "fleet", ["fleet", "run"], name="f") as rec:
            rec.hashes = {"fleet": "abc123"}
            rec.artifacts = "out/fleet.json"
        assert rec.run_id is not None
        entry = ledger.find(rec.run_id)
        assert entry["status"] == "ok"
        assert entry["error"] is None
        assert entry["command"] == ["fleet", "run"]
        assert entry["hashes"] == {"fleet": "abc123"}
        assert entry["duration_s"] >= 0.0
        assert "rss_kb" in entry["resources"]

    def test_failure_recorded_then_raised(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs.jsonl")
        with pytest.raises(RuntimeError, match="boom"):
            with record_run(ledger, "fleet", ["x"], name="f") as rec:
                raise RuntimeError("boom\nsecond line never recorded")
        entry = ledger.find(rec.run_id)
        assert entry["status"] == "failed"
        assert entry["error"] == "RuntimeError: boom"

    def test_none_ledger_writes_nothing(self, tmp_path):
        with record_run(None, "fleet", ["x"], name="f") as rec:
            pass
        assert rec.run_id is None

    def test_ledger_io_error_never_fails_the_run(self, tmp_path):
        # A directory where the ledger file should be -> append raises
        # OSError, which record_run demotes to a warning.
        bad = tmp_path / "runs.jsonl"
        bad.mkdir()
        with record_run(RunLedger(bad), "fleet", ["x"], name="f") as rec:
            pass
        assert rec.run_id is None


class TestRegressFailures:
    def _telemetry(self, scale=1.0):
        return {
            "spans": {
                "fleet.run": {"count": 1, "total_s": 0.5 * scale},
                "tiny.span": {"count": 1, "total_s": 1e-5 * scale},
            }
        }

    def test_identical_runs_pass(self):
        a = _entry(duration=1.0, telemetry=self._telemetry())
        assert regress_failures(a, dict(a), tolerance=0.0) == []

    def test_seeded_slowdown_fails(self):
        a = _entry(duration=1.0, telemetry=self._telemetry())
        b = _entry(duration=10.0, telemetry=self._telemetry(scale=10.0))
        failures = regress_failures(a, b, tolerance=0.25)
        assert "run.duration" in failures
        assert "fleet.run" in failures
        assert "tiny.span" not in failures  # under the noise floor

    def test_faster_is_never_a_failure(self):
        a = _entry(duration=10.0, telemetry=self._telemetry(scale=10.0))
        b = _entry(duration=1.0, telemetry=self._telemetry())
        assert regress_failures(a, b, tolerance=0.0) == []

    def test_tolerance_gates(self):
        a = _entry(duration=1.0)
        b = _entry(duration=1.2)
        assert regress_failures(a, b, tolerance=0.25) == []
        assert regress_failures(a, b, tolerance=0.1) == ["run.duration"]


FLEET_FLAGS = ["--users", "4", "--duration", "0.5", "--seed", "11"]


def _run_fleet(tmp_path, ledger, out_name, extra=()):
    code = main([
        "fleet", "run", *FLEET_FLAGS, "--shards", "2",
        "--out", str(tmp_path / out_name), "--quiet",
        "--ledger", str(ledger), "--telemetry", *extra,
    ])
    assert code == 0


class TestCliHistoryRegress:
    def test_history_lists_recorded_runs(self, tmp_path, capsys):
        ledger = tmp_path / "runs.jsonl"
        _run_fleet(tmp_path, ledger, "a")
        _run_fleet(tmp_path, ledger, "b")
        capsys.readouterr()
        assert main(["obs", "history", "--ledger", str(ledger)]) == 0
        out = capsys.readouterr().out
        assert out.count("fleet-sharded") == 2
        entries = [json.loads(line) for line in
                   ledger.read_text().splitlines()]
        assert len(entries) == 2
        for entry in entries:
            assert entry["run_id"] in out
            assert entry["hashes"]["fleet"] in out
        # --json returns the machine-readable entries.
        assert main(["obs", "history", "--ledger", str(ledger),
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [e["run_id"] for e in payload] == \
            [e["run_id"] for e in entries]

    def test_history_empty_ledger(self, tmp_path, capsys):
        assert main(["obs", "history", "--ledger",
                     str(tmp_path / "none.jsonl")]) == 0
        assert "no runs recorded" in capsys.readouterr().out

    def test_regress_last_two_identical_exits_zero(self, tmp_path, capsys):
        ledger = tmp_path / "runs.jsonl"
        _run_fleet(tmp_path, ledger, "a")
        # Duplicate the recorded entry under a fresh ID: a perfectly
        # identical "second run" with zero timing noise.
        entry = json.loads(ledger.read_text().splitlines()[0])
        entry.pop("run_id")
        entry["started_at"] += 1.0
        RunLedger(ledger).append(entry)
        capsys.readouterr()
        assert main(["obs", "regress", "--last", "2",
                     "--ledger", str(ledger)]) == 0
        assert "no regression" in capsys.readouterr().out

    def test_regress_seeded_slowdown_exits_one(self, tmp_path, capsys):
        ledger = tmp_path / "runs.jsonl"
        _run_fleet(tmp_path, ledger, "a")
        entry = json.loads(ledger.read_text().splitlines()[0])
        entry.pop("run_id")
        entry["started_at"] += 1.0
        entry["duration_s"] *= 100.0
        for span in entry["telemetry"]["spans"].values():
            span["total_s"] *= 100.0
        RunLedger(ledger).append(entry)
        capsys.readouterr()
        assert main(["obs", "regress", "--last", "2",
                     "--ledger", str(ledger)]) == 1
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.err
        assert "run.duration" in captured.err

    def test_regress_by_run_ids_and_validation(self, tmp_path, capsys):
        ledger = tmp_path / "runs.jsonl"
        _run_fleet(tmp_path, ledger, "a")
        run_id = json.loads(ledger.read_text())["run_id"]
        capsys.readouterr()
        # A run against itself is identical -> exit 0.
        assert main(["obs", "regress", run_id, run_id,
                     "--ledger", str(ledger)]) == 0
        assert main(["obs", "regress", "--ledger", str(ledger)]) == 2
        assert main(["obs", "regress", "--last", "1",
                     "--ledger", str(ledger)]) == 2
        assert main(["obs", "regress", "--last", "2",
                     "--ledger", str(tmp_path / "empty.jsonl")]) == 2

    def test_obs_top_and_diff_accept_run_ids(self, tmp_path, capsys):
        ledger = tmp_path / "runs.jsonl"
        _run_fleet(tmp_path, ledger, "a")
        run_id = json.loads(ledger.read_text())["run_id"]
        capsys.readouterr()
        assert main(["obs", "top", run_id, "--ledger", str(ledger)]) == 0
        assert "fleet.run" in capsys.readouterr().out
        assert main(["obs", "diff", run_id, run_id,
                     "--ledger", str(ledger)]) == 0
        assert "1.00x" in capsys.readouterr().out

    def test_obs_top_run_without_telemetry_is_loud(self, tmp_path, capsys):
        ledger = tmp_path / "runs.jsonl"
        code = main([
            "fleet", "run", *FLEET_FLAGS, "--shards", "2",
            "--out", str(tmp_path / "plain"), "--quiet",
            "--ledger", str(ledger),
        ])
        assert code == 0
        run_id = json.loads(ledger.read_text())["run_id"]
        capsys.readouterr()
        assert main(["obs", "top", run_id, "--ledger", str(ledger)]) == 2
        assert "no telemetry" in capsys.readouterr().err


class TestCliLedgerRecording:
    def test_fleet_run_records_hashes_and_artifacts(self, tmp_path):
        ledger = tmp_path / "runs.jsonl"
        _run_fleet(tmp_path, ledger, "a")
        entry = json.loads(ledger.read_text())
        assert entry["kind"] == "fleet-sharded"
        assert entry["hashes"]["shards"] == 2
        assert len(entry["hashes"]["fleet"]) == 16
        assert entry["artifacts"] == str(tmp_path / "a")
        assert entry["command"][0] == "fleet"
        assert entry["telemetry"]["spans"]
        assert entry["status"] == "ok"

    def test_unsharded_fleet_and_failure_recorded(self, tmp_path, capsys):
        ledger = tmp_path / "runs.jsonl"
        assert main([
            "fleet", "run", *FLEET_FLAGS,
            "--out", str(tmp_path / "flat.json"), "--quiet",
            "--ledger", str(ledger),
        ]) == 0
        # Unsatisfiable shard count -> SpecError -> exit 2, recorded.
        assert main([
            "fleet", "run", *FLEET_FLAGS, "--shards", "99",
            "--quiet", "--ledger", str(ledger),
        ]) == 2
        entries = [json.loads(line) for line in
                   ledger.read_text().splitlines()]
        assert [e["kind"] for e in entries] == ["fleet", "fleet-sharded"]
        assert entries[0]["status"] == "ok"
        assert entries[1]["status"] == "failed"
        assert "SpecError" in entries[1]["error"]

    def test_campaign_run_recorded(self, tmp_path):
        ledger = tmp_path / "runs.jsonl"
        assert main([
            "campaign", "run", "--experiment", "search",
            "--scenarios", "walk", "--seeds", "1", "--quiet",
            "--out", str(tmp_path / "camp"), "--ledger", str(ledger),
        ]) == 0
        entry = json.loads(ledger.read_text())
        assert entry["kind"] == "campaign"
        assert entry["hashes"]["cells"] >= 1
        assert len(entry["hashes"]["campaign"]) == 16
        assert entry["artifacts"] == str(tmp_path / "camp")

    def test_no_ledger_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main([
            "fleet", "run", *FLEET_FLAGS,
            "--out", str(tmp_path / "flat.json"), "--quiet", "--no-ledger",
        ]) == 0
        assert not (tmp_path / ".repro").exists()

    def test_default_ledger_is_repo_scoped(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main([
            "fleet", "run", *FLEET_FLAGS,
            "--out", str(tmp_path / "flat.json"), "--quiet",
        ]) == 0
        assert (tmp_path / ".repro" / "runs.jsonl").exists()

    def test_artifact_bytes_identical_ledger_on_off(self, tmp_path):
        ledger = tmp_path / "runs.jsonl"
        for flags, out in (
            (["--ledger", str(ledger)], "with-ledger.json"),
            (["--no-ledger"], "without-ledger.json"),
        ):
            assert main([
                "fleet", "run", *FLEET_FLAGS,
                "--out", str(tmp_path / out), "--quiet", *flags,
            ]) == 0
        assert (tmp_path / "with-ledger.json").read_bytes() == \
            (tmp_path / "without-ledger.json").read_bytes()
