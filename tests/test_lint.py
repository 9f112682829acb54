"""Tests for ``repro.lint``: rules, waivers, baselines, and the CLI.

The per-rule cases lint the fixture files under ``tests/data/lint/``
through :meth:`LintEngine.lint_source` with a synthetic module key, so
one fixture exercises both the in-scope (``repro/net/*``) and
out-of-scope behaviour of a rule.  The mutation tests at the bottom are
the acceptance check: seeding a wall-clock read into the real
``net/deployment.py`` and a typo'd stream key into the real
``net/link_engine.py`` must each produce exactly one finding with the
right rule ID, module, and line.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import (
    LINT_FORMAT,
    LintEngine,
    LintError,
    apply_baseline,
    load_baseline,
    module_key,
    parse_waivers,
    write_baseline,
)

FIXTURES = Path(__file__).parent / "data" / "lint"
SRC = Path(__file__).resolve().parents[1] / "src"

#: Module key the positive fixtures are linted under: inside every
#: rule's scope, outside every allowlist.
LIB_KEY = "repro/net/example.py"


def lint_fixture(name, key=LIB_KEY):
    source = (FIXTURES / name).read_text(encoding="utf-8")
    return LintEngine().lint_source(source, key)


def rules_of(findings):
    return [finding.rule for finding in findings]


# ---------------------------------------------------------------- keys
class TestModuleKey:
    def test_src_relative(self):
        assert module_key("src/repro/net/deployment.py") == (
            "repro/net/deployment.py"
        )

    def test_absolute(self):
        assert module_key("/ci/work/repo/src/repro/sim/rng.py") == (
            "repro/sim/rng.py"
        )

    def test_tests_tree(self):
        assert module_key("/tmp/copy/tests/test_fleet.py") == (
            "tests/test_fleet.py"
        )

    def test_unanchored_falls_back_to_filename(self):
        assert module_key("/tmp/pytest-0/scratch.py") == "scratch.py"


# --------------------------------------------------------------- rules
class TestRules:
    def test_det001_positive(self):
        findings = lint_fixture("det001_bad.py")
        assert rules_of(findings) == ["DET001", "DET001"]
        assert "time.time" in findings[0].message

    def test_det001_negative(self):
        assert lint_fixture("det001_ok.py") == []

    def test_det001_allowlisted_modules(self):
        # The same reads are the *business* of bench/progress/tests code.
        assert lint_fixture("det001_bad.py", "repro/bench/suites.py") == []
        assert lint_fixture("det001_bad.py", "repro/net/progress.py") == []
        assert lint_fixture("det001_bad.py", "tests/test_x.py") == []

    def test_det002_positive(self):
        findings = lint_fixture("det002_bad.py")
        assert rules_of(findings) == ["DET002", "DET002", "DET002"]
        messages = " ".join(finding.message for finding in findings)
        assert "stdlib random" in messages
        assert "default_rng" in messages

    def test_det002_negative(self):
        assert lint_fixture("det002_ok.py") == []

    def test_det002_seeding_site_allows_default_rng(self):
        # Declared seeding sites may call default_rng; the global-state
        # random module and legacy numpy API stay banned even there.
        findings = lint_fixture("det002_bad.py", "tests/test_x.py")
        assert rules_of(findings) == ["DET002", "DET002"]
        assert not any("default_rng" in f.message for f in findings)

    def test_det003_positive(self):
        findings = lint_fixture("det003_bad.py")
        assert rules_of(findings) == ["DET003", "DET003"]
        assert "sort_keys" in findings[0].message
        assert "sorted" in findings[1].message

    def test_det003_negative(self):
        assert lint_fixture("det003_ok.py") == []

    def test_det004_positive(self):
        findings = lint_fixture("det004_bad.py")
        assert rules_of(findings) == ["DET004"] * 4
        messages = " ".join(finding.message for finding in findings)
        assert "REPRO_TURBO" in messages
        assert "switch_value" in messages

    def test_det004_negative(self):
        assert lint_fixture("det004_ok.py") == []

    def test_det004_undeclared_name_flagged_even_in_tests(self):
        # monkeypatch.setenv of a misspelled switch would silently select
        # the default path — the declared-name check has no allowlist.
        source = 'monkeypatch.setenv("REPRO_CELL_INDX", "off")\n'
        findings = LintEngine().lint_source(source, "tests/test_x.py")
        assert rules_of(findings) == ["DET004"]
        assert "REPRO_CELL_INDX" in findings[0].message

    def test_det005_positive(self):
        findings = lint_fixture("det005_bad.py")
        assert rules_of(findings) == ["DET005", "DET005"]
        assert "shadwoing/cell-0" in findings[0].message
        assert "uplnk" in findings[1].message

    def test_det005_negative(self):
        assert lint_fixture("det005_ok.py") == []

    def test_det005_tests_out_of_scope(self):
        # Tests mint scratch stream names deliberately.
        assert lint_fixture("det005_bad.py", "tests/test_x.py") == []

    def test_det006_positive(self):
        findings = lint_fixture("det006_bad.py")
        assert rules_of(findings) == ["DET006"] * 4
        messages = " ".join(finding.message for finding in findings)
        assert "CACHE" in messages
        assert "HISTORY" in messages
        assert "append" in messages
        assert "tally" in messages

    def test_det006_negative(self):
        assert lint_fixture("det006_ok.py") == []

    def test_det006_scoped_to_simulation_packages(self):
        assert lint_fixture("det006_bad.py", "repro/obs/hub.py") == []


# ------------------------------------------------------------- waivers
class TestWaivers:
    SOURCE = "import time\nvalue = time.time()\n"

    def test_parse(self):
        waivers = parse_waivers(
            ["x = 1  # repro: lint-waive[DET001, DET005]: legacy"]
        )
        assert len(waivers) == 1
        assert waivers[0].rules == ("DET001", "DET005")
        assert waivers[0].justification == "legacy"
        assert not waivers[0].standalone

    def test_justified_same_line_waiver_applies(self):
        source = (
            "import time\n"
            "value = time.time()  # repro: lint-waive[DET001]: fixture\n"
        )
        assert LintEngine().lint_source(source, LIB_KEY) == []

    def test_justified_standalone_waiver_covers_next_line(self):
        source = (
            "import time\n"
            "# repro: lint-waive[DET001]: fixture clock\n"
            "value = time.time()\n"
        )
        assert LintEngine().lint_source(source, LIB_KEY) == []

    def test_unjustified_waiver_is_itself_a_finding(self):
        source = (
            "import time\n"
            "value = time.time()  # repro: lint-waive[DET001]\n"
        )
        findings = LintEngine().lint_source(source, LIB_KEY)
        assert sorted(rules_of(findings)) == ["DET001", "LINT100"]

    def test_waiver_for_another_rule_does_not_apply(self):
        source = (
            "import time\n"
            "value = time.time()  # repro: lint-waive[DET005]: wrong rule\n"
        )
        findings = LintEngine().lint_source(source, LIB_KEY)
        assert rules_of(findings) == ["DET001"]


# ------------------------------------------------------------ baseline
class TestBaseline:
    SOURCE = (
        "import json\n"
        "def f(a):\n"
        "    print(json.dumps(a))\n"
        "    print(json.dumps(a))\n"
    )

    def test_round_trip_silences_grandfathered_findings(self, tmp_path):
        findings = LintEngine().lint_source(self.SOURCE, "tests/test_x.py")
        assert rules_of(findings) == ["DET003", "DET003"]
        path = tmp_path / "base.json"
        write_baseline(findings, path)
        assert apply_baseline(findings, load_baseline(path)) == []

    def test_counts_are_per_occurrence(self, tmp_path):
        # Two identical offending lines share a baseline key with
        # count 2; dropping the count to 1 re-exposes one finding.
        findings = LintEngine().lint_source(self.SOURCE, "tests/test_x.py")
        path = tmp_path / "base.json"
        write_baseline(findings, path)
        counts = load_baseline(path)
        assert list(counts.values()) == [2]
        key = next(iter(counts))
        counts[key] = 1
        assert len(apply_baseline(findings, counts)) == 1

    def test_keys_survive_line_moves(self, tmp_path):
        findings = LintEngine().lint_source(self.SOURCE, "tests/test_x.py")
        path = tmp_path / "base.json"
        write_baseline(findings, path)
        shifted = LintEngine().lint_source(
            "# a new comment above\n" + self.SOURCE, "tests/test_x.py"
        )
        assert apply_baseline(shifted, load_baseline(path)) == []

    def test_malformed_baseline_is_lint_error(self, tmp_path):
        path = tmp_path / "base.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(LintError, match="malformed baseline"):
            load_baseline(path)
        path.write_text('{"entries": [{"rule": "X"}]}', encoding="utf-8")
        with pytest.raises(LintError, match="rule/path/text"):
            load_baseline(path)


# ----------------------------------------------------------------- CLI
@pytest.fixture()
def lint_tree(tmp_path):
    """A scratch tree with one clean and one offending module."""
    clean = tmp_path / "clean.py"
    clean.write_text("VALUE = 1\n", encoding="utf-8")
    bad = tmp_path / "mod.py"
    bad.write_text(
        "import time\n\n\ndef stamp():\n    return time.time()\n",
        encoding="utf-8",
    )
    return tmp_path


class TestCli:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("VALUE = 1\n", encoding="utf-8")
        assert main(["lint", str(clean)]) == 0
        assert "clean: 1 file(s), 0 findings" in capsys.readouterr().out

    def test_findings_exit_one_with_location(self, lint_tree, capsys):
        assert main(["lint", str(lint_tree)]) == 1
        out = capsys.readouterr().out
        assert "mod.py:5:12: DET001" in out
        assert "1 finding(s) in 2 file(s)" in out

    def test_json_schema(self, lint_tree, capsys):
        assert main(["lint", str(lint_tree), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["format"] == LINT_FORMAT
        assert payload["checked_files"] == 2
        assert payload["counts"] == {"DET001": 1}
        (finding,) = payload["findings"]
        assert {"rule", "path", "line", "col", "message"} <= set(finding)
        assert finding["rule"] == "DET001"
        assert finding["line"] == 5

    def test_nonexistent_path_exits_two(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "missing")]) == 2
        err = capsys.readouterr().err
        assert "no such file or directory" in err
        assert "Traceback" not in err

    def test_malformed_baseline_exits_two(self, lint_tree, capsys):
        broken = lint_tree / "base.json"
        broken.write_text("{not json", encoding="utf-8")
        assert main(
            ["lint", str(lint_tree / "mod.py"), "--baseline", str(broken)]
        ) == 2
        assert "malformed baseline" in capsys.readouterr().err

    def test_syntax_error_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n", encoding="utf-8")
        assert main(["lint", str(bad)]) == 2
        assert "syntax error" in capsys.readouterr().err

    def test_write_then_apply_baseline(self, lint_tree, capsys):
        base = lint_tree / "base.json"
        assert main(
            ["lint", str(lint_tree), "--write-baseline", str(base)]
        ) == 0
        assert "1 grandfathered finding(s)" in capsys.readouterr().out
        assert main(["lint", str(lint_tree), "--baseline", str(base)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_stale_baseline_entry_exits_one(self, lint_tree, capsys):
        base = lint_tree / "base.json"
        assert main(
            ["lint", str(lint_tree), "--write-baseline", str(base)]
        ) == 0
        (lint_tree / "mod.py").write_text("VALUE = 2\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["lint", str(lint_tree), "--baseline", str(base)]) == 1
        assert "stale DET001 entry for mod.py" in capsys.readouterr().out
        assert main(
            ["lint", str(lint_tree), "--baseline", str(base), "--json"]
        ) == 1
        (entry,) = json.loads(capsys.readouterr().out)["stale_baseline"]
        assert (entry["path"], entry["count"], entry["matched"]) == (
            "mod.py", 1, 0,
        )
        # An entry for a module the run did not lint is not judged.
        assert main(
            ["lint", str(lint_tree / "clean.py"), "--baseline", str(base)]
        ) == 0

    def test_fixture_data_is_skipped_in_directory_walks(self, capsys):
        # tests/data/lint is full of deliberate violations; the tests/
        # gate must never pick them up.
        tests_dir = Path(__file__).parent
        assert main(
            ["lint", str(tests_dir), "--baseline",
             str(tests_dir.parent / "lint-baseline.json")]
        ) == 0


# ------------------------------------------------- shipped-tree gates
class TestShippedTree:
    def test_src_is_clean(self):
        engine = LintEngine()
        files, findings = engine.lint_paths([SRC])
        assert len(files) > 50
        assert findings == []

    def test_no_unjustified_waivers_anywhere(self):
        engine = LintEngine()
        repo = SRC.parent
        for path in engine.collect_files([SRC, repo / "tests"]):
            if SRC / "repro" / "lint" in path.parents:
                continue  # documents the waiver syntax with examples
            waivers = parse_waivers(
                path.read_text(encoding="utf-8").splitlines()
            )
            for waiver in waivers:
                assert waiver.justification, (
                    f"{path}:{waiver.line}: waiver without justification"
                )
                # src/ may only waive the judgment-call rules.
                if SRC in path.parents:
                    assert set(waiver.rules) <= {"DET005", "DET006"}, (
                        f"{path}:{waiver.line}: DET001-DET004 must be "
                        f"fixed, not waived"
                    )


# ----------------------------------------------------- mutation tests
class TestMutationDetection:
    """Seeded-violation acceptance checks against the real sources."""

    def test_wall_clock_seeded_into_deployment(self):
        source = (SRC / "repro" / "net" / "deployment.py").read_text(
            encoding="utf-8"
        )
        mutated = (
            source + "\n\nimport time\n\n\ndef _leak():\n"
            "    return time.time()\n"
        )
        findings = LintEngine().lint_source(
            mutated, "repro/net/deployment.py"
        )
        assert len(findings) == 1
        (finding,) = findings
        assert finding.rule == "DET001"
        assert finding.path == "repro/net/deployment.py"
        assert finding.line == len(mutated.splitlines())

    def test_stream_key_typo_seeded_into_link_engine(self):
        source = (SRC / "repro" / "net" / "link_engine.py").read_text(
            encoding="utf-8"
        )
        mutated = (
            source + "\n\ndef _leak(registry):\n"
            '    return registry.stream("shadwoing/cell-0")\n'
        )
        findings = LintEngine().lint_source(
            mutated, "repro/net/link_engine.py"
        )
        assert len(findings) == 1
        (finding,) = findings
        assert finding.rule == "DET005"
        assert finding.path == "repro/net/link_engine.py"
        assert finding.line == len(mutated.splitlines())
        assert "shadwoing/cell-0" in finding.message
