"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.scenario == "walk"
        assert args.seed == 7

    def test_fig2a_args(self):
        args = build_parser().parse_args(
            ["fig2a", "--trials", "5", "--scenario", "rotation"]
        )
        assert args.trials == 5
        assert args.scenario == "rotation"

    def test_bad_scenario_rejected(self, capsys):
        # Validated against the scenario registry at command time, not
        # by argparse: unknown names exit 2 listing the choices.
        assert main(["demo", "--scenario", "flying"]) == 2
        err = capsys.readouterr().err
        assert "flying" in err
        assert "walk" in err


class TestCommands:
    def test_fsm_ascii(self, capsys):
        assert main(["fsm"]) == 0
        output = capsys.readouterr().out
        assert "N-RBA" in output
        assert "[E]" in output

    def test_fsm_dot(self, capsys):
        assert main(["fsm", "--dot", "--guards"]) == 0
        output = capsys.readouterr().out
        assert output.startswith("digraph")
        assert "handover trigger" in output

    def test_demo_runs(self, capsys):
        assert main(["demo", "--seed", "3", "--duration", "3.0"]) == 0
        output = capsys.readouterr().out
        assert "final serving cell" in output

    def test_demo_rejects_nan_duration_promptly(self):
        # A nan duration used to spin in run_until forever; it must now
        # fail at spec construction.  A subprocess with a timeout keeps a
        # regression from hanging the suite.
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        result = subprocess.run(
            [sys.executable, "-m", "repro", "demo", "--duration", "nan"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 2
        assert "error: duration_s must be finite" in result.stderr

    def test_fig2a_small(self, capsys):
        assert main(["fig2a", "--trials", "3"]) == 0
        output = capsys.readouterr().out
        assert "narrow" in output
        assert "omni" in output

    def test_fig2c_small(self, capsys):
        assert main(["fig2c", "--trials", "2", "--cdf"]) == 0
        output = capsys.readouterr().out
        assert "walk" in output
        assert "CDF" in output

    def test_compare_small(self, capsys):
        assert main(["compare", "--trials", "2", "--scenario", "walk"]) == 0
        output = capsys.readouterr().out
        assert "silent-tracker" in output
        assert "reactive" in output

    def test_report_to_file(self, tmp_path, capsys):
        target = tmp_path / "report.md"
        assert main(["report", "--trials", "2", "--output", str(target)]) == 0
        text = target.read_text()
        assert text.startswith("# Silent Tracker reproduction report")
        assert "Fig. 2a" in text
        assert "Fig. 2c" in text
