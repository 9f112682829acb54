"""The perf-benchmark harness: timing mechanics and artifact schema."""

import json

import pytest

from repro.bench.harness import (
    TimingResult,
    results_payload,
    speedup,
    time_fn,
    usable_cores,
    write_bench_json,
)


class TestTimeFn:
    def test_basic_statistics(self):
        calls = []
        result = time_fn("case", lambda: calls.append(1), repeats=5, warmup=2)
        assert len(calls) == 7  # warmup runs execute but are not sampled
        assert result.name == "case"
        assert result.repeats == 5 and result.warmup == 2
        assert len(result.samples_s) == 5
        assert result.min_s <= result.median_s <= max(result.samples_s)
        assert result.p25_s <= result.median_s <= result.p75_s
        assert result.iqr_s == pytest.approx(result.p75_s - result.p25_s)

    def test_meta_recorded(self):
        result = time_fn("case", lambda: None, repeats=1, warmup=0,
                         meta={"n": 3})
        assert result.meta == {"n": 3}

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            time_fn("case", lambda: None, repeats=0)
        with pytest.raises(ValueError):
            time_fn("case", lambda: None, repeats=1, warmup=-1)


class TestSpeedup:
    def test_ratio(self):
        slow = TimingResult("a", 1, 0, 2.0, 0.0, 2.0, 2.0, 2.0, 2.0, [2.0])
        fast = TimingResult("b", 1, 0, 0.5, 0.0, 0.5, 0.5, 0.5, 0.5, [0.5])
        assert speedup(slow, fast) == pytest.approx(4.0)

    def test_rejects_zero_candidate(self):
        zero = TimingResult("z", 1, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, [0.0])
        with pytest.raises(ValueError):
            speedup(zero, zero)


class TestArtifact:
    def test_write_bench_json_canonical(self, tmp_path):
        target = tmp_path / "nested" / "BENCH_phy.json"
        write_bench_json({"b": 2, "a": 1}, target)
        text = target.read_text(encoding="utf-8")
        assert text.endswith("\n")
        assert json.loads(text) == {"a": 1, "b": 2}
        # Canonical: keys sorted on disk.
        assert text.index('"a"') < text.index('"b"')

    def test_results_payload_roundtrip(self):
        result = time_fn("case", lambda: None, repeats=2, warmup=0)
        payload = results_payload([result])
        assert payload[0]["name"] == "case"
        json.dumps(payload)  # must be JSON-serializable


def _result_with_median(name, median_s):
    return {"name": name, "median_s": median_s}


class TestCompare:
    def _payloads(self, current_median, baseline_median):
        current = {"results": [_result_with_median("case.a", current_median),
                               _result_with_median("only.current", 1.0)]}
        baseline = {"results": [_result_with_median("case.a", baseline_median),
                                _result_with_median("only.baseline", 1.0)]}
        return current, baseline

    def test_only_shared_cases_compared(self):
        from repro.bench.harness import compare_payloads

        comparisons = compare_payloads(*self._payloads(1.0, 1.0))
        assert [c.name for c in comparisons] == ["case.a"]

    def test_regression_beyond_tolerance(self):
        from repro.bench.harness import compare_payloads, regressions

        comparisons = compare_payloads(*self._payloads(1.3, 1.0))
        assert regressions(comparisons, tolerance=0.20) == comparisons
        assert regressions(comparisons, tolerance=0.50) == []

    def test_speedup_is_not_a_regression(self):
        from repro.bench.harness import compare_payloads, regressions

        comparisons = compare_payloads(*self._payloads(0.5, 1.0))
        assert regressions(comparisons, tolerance=0.0) == []

    def test_negative_tolerance_rejected(self):
        from repro.bench.harness import regressions

        with pytest.raises(ValueError):
            regressions([], tolerance=-0.1)

    def test_meta_mismatch_skipped(self):
        # A quick-mode run must not be gated against a full-mode
        # baseline: differing workload meta makes the timings
        # incomparable, so those cases are skipped (and named).
        from repro.bench.harness import compare_payloads, incomparable_cases

        current = {"results": [
            {"name": "case.a", "median_s": 1.0, "meta": {"n_bursts": 200}},
            {"name": "case.b", "median_s": 1.0, "meta": {"n": 5}},
        ]}
        baseline = {"results": [
            {"name": "case.a", "median_s": 1.0, "meta": {"n_bursts": 500}},
            {"name": "case.b", "median_s": 1.0, "meta": {"n": 5}},
        ]}
        comparisons = compare_payloads(current, baseline)
        assert [c.name for c in comparisons] == ["case.b"]
        assert incomparable_cases(current, baseline) == ["case.a"]

    def test_baseline_without_cpu_count_still_compares(self):
        # Baselines recorded before the PHY suite's cpu_count field
        # (BENCH_phy.json until it was re-recorded) must still compare.
        from pathlib import Path

        from repro.bench.harness import (
            compare_payloads,
            load_bench_json,
            regressions,
            usable_cores,
        )

        baseline = load_bench_json(
            Path(__file__).resolve().parents[1] / "BENCH_phy.json"
        )
        baseline.pop("cpu_count", None)
        current = dict(baseline, cpu_count=usable_cores())
        comparisons = compare_payloads(current, baseline)
        assert len(comparisons) == len(baseline["results"])
        assert regressions(comparisons, tolerance=0.0) == []

    def test_cli_compare_accepts_phy_baseline_without_cpu_count(
        self, tmp_path, capsys, monkeypatch
    ):
        # The PHY suite records cpu_count; `repro bench --compare` must
        # still gate it against a baseline recorded before that field.
        from pathlib import Path

        import repro.bench
        from repro.bench.harness import load_bench_json, write_bench_json
        from repro.cli import main

        baseline = load_bench_json(
            Path(__file__).resolve().parents[1] / "BENCH_phy.json"
        )
        baseline.pop("cpu_count", None)
        baseline_path = tmp_path / "BENCH_phy_old.json"
        write_bench_json(baseline, baseline_path)
        payload = dict(baseline, cpu_count=usable_cores())
        monkeypatch.setattr(repro.bench, "run_bench", lambda **kwargs: payload)
        monkeypatch.chdir(tmp_path)
        status = main(["bench", "--compare", str(baseline_path)])
        assert status == 0
        assert "no regressions" in capsys.readouterr().out

    def test_cli_compare_errors_when_nothing_comparable(self, tmp_path, capsys):
        from repro.bench import run_fleet_bench
        from repro.bench.harness import write_bench_json
        from repro.cli import main

        payload = run_fleet_bench(quick=True, repeats=1, warmup=0)
        # Same case names, different workload meta (a "full-mode"
        # baseline): every case is skipped, the gate would be vacuous.
        mismatched = {
            "results": [
                {**r, "meta": {**r["meta"], "duration_s": 99.0}}
                for r in payload["results"]
            ]
        }
        baseline = tmp_path / "baseline.json"
        write_bench_json(mismatched, baseline)
        status = main(
            ["bench", "--suite", "fleet", "--quick", "--repeats", "1",
             "--out", "", "--compare", str(baseline)]
        )
        assert status == 2
        err = capsys.readouterr().err
        assert "skipped" in err and "no comparable cases" in err

    def test_cli_compare_without_out_writes_nothing(
        self, tmp_path, capsys, monkeypatch
    ):
        # A gating run with no explicit --out must not clobber the
        # committed default artifact (the very baseline it reads).
        from repro.bench import run_fleet_bench
        from repro.bench.harness import write_bench_json
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        payload = run_fleet_bench(quick=True, repeats=1, warmup=0)
        slow = {
            "results": [{**r, "median_s": 3600.0} for r in payload["results"]]
        }
        baseline = tmp_path / "baseline.json"
        write_bench_json(slow, baseline)
        status = main(
            ["bench", "--suite", "fleet", "--quick", "--repeats", "1",
             "--compare", str(baseline)]
        )
        assert status == 0
        assert "no regressions" in capsys.readouterr().out
        assert not (tmp_path / "BENCH_fleet.json").exists()

    def test_cli_missing_baseline_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        status = main(
            ["bench", "--suite", "fleet", "--quick", "--repeats", "1",
             "--out", "", "--compare", str(tmp_path / "nope.json")]
        )
        assert status == 2
        assert "error:" in capsys.readouterr().err

    def test_cli_negative_tolerance_exits_2_before_running(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        # The baseline file doesn't even exist: the tolerance check
        # must reject the invocation before anything runs or loads.
        status = main(
            ["bench", "--suite", "fleet", "--compare",
             str(tmp_path / "nope.json"), "--compare-tolerance", "-0.5"]
        )
        assert status == 2
        assert "non-negative" in capsys.readouterr().err

    def test_malformed_baseline_is_operational_error(self, tmp_path, capsys):
        from repro.bench.harness import BenchError, compare_payloads
        from repro.cli import main

        with pytest.raises(BenchError):
            compare_payloads({"results": [{"name": "a", "median_s": 1.0}]},
                             {"results": [{"name": "a"}]})
        with pytest.raises(BenchError):
            compare_payloads({"not-results": []}, {"results": []})
        # And through the CLI: message + exit 2, no traceback.
        baseline = tmp_path / "baseline.json"
        baseline.write_text('{"results": [{"name": "a"}]}', encoding="utf-8")
        status = main(
            ["bench", "--suite", "fleet", "--quick", "--repeats", "1",
             "--out", "", "--compare", str(baseline)]
        )
        assert status == 2
        assert "malformed result record" in capsys.readouterr().err

    def test_cli_compare_gates_exit_code(self, tmp_path, capsys):
        from repro.bench.harness import write_bench_json
        from repro.cli import main

        # A baseline claiming every case once took an hour: the current
        # run is faster, so the gate passes.
        fast_args = ["bench", "--suite", "fleet", "--quick", "--repeats", "1",
                     "--out", ""]
        from repro.bench import run_fleet_bench

        payload = run_fleet_bench(quick=True, repeats=1, warmup=0)
        slow = {
            "results": [
                {**r, "median_s": 3600.0} for r in payload["results"]
            ]
        }
        baseline = tmp_path / "baseline.json"
        write_bench_json(slow, baseline)
        assert main(fast_args + ["--compare", str(baseline)]) == 0
        assert "no regressions" in capsys.readouterr().out
        # A baseline claiming instant cases: everything regressed.
        instant = {
            "results": [
                {**r, "median_s": 1e-12} for r in payload["results"]
            ]
        }
        write_bench_json(instant, baseline)
        assert main(fast_args + ["--compare", str(baseline)]) == 1
        assert "REGRESSION" in capsys.readouterr().err

    def test_cli_compare_when_out_overwrites_baseline(self, tmp_path, capsys):
        # Regression: with --out pointing at the baseline file (the
        # default when --out is omitted), the run used to overwrite the
        # baseline *before* loading it, comparing the run against
        # itself — every ratio 1.0, the gate always green.
        from repro.bench import run_fleet_bench
        from repro.bench.harness import write_bench_json
        from repro.cli import main

        payload = run_fleet_bench(quick=True, repeats=1, warmup=0)
        instant = {
            "results": [{**r, "median_s": 1e-12} for r in payload["results"]]
        }
        baseline = tmp_path / "baseline.json"
        write_bench_json(instant, baseline)
        status = main(
            ["bench", "--suite", "fleet", "--quick", "--repeats", "1",
             "--out", str(baseline), "--compare", str(baseline)]
        )
        assert status == 1
        assert "REGRESSION" in capsys.readouterr().err


class TestFleetSuite:
    def test_quick_fleet_suite_schema(self, tmp_path):
        from repro.bench.fleet_suite import run_fleet_bench

        out = tmp_path / "BENCH_fleet.json"
        payload = run_fleet_bench(
            quick=True, out_path=str(out), repeats=1, warmup=0
        )
        assert out.exists()
        assert payload["suite"] == "fleet"
        names = {r["name"] for r in payload["results"]}
        assert {"fleet.run.u4.batch", "fleet.run.u16.batch",
                "fleet.dense.c64.coalesced"} <= names
        assert not any(
            name.endswith((".scalar", ".permobile", ".legacy"))
            for name in names
        )
        derived = payload["derived"]
        assert set(derived["scaling_median_s"]) == {"4", "16"}
        assert derived["oversubscribed_workers"] == []
        assert derived["sharded_identical"] is True
        assert payload["cpu_count"] == usable_cores()
        assert "speedups" not in derived
        assert "artifacts_identical" not in derived


    def test_oversubscribed_workers(self):
        from repro.bench.fleet_suite import oversubscribed_workers

        scaling = {"1": 27.5, "2": 30.2, "4": 36.0}
        assert oversubscribed_workers(scaling, cpu_count=1) == [2, 4]
        assert oversubscribed_workers(scaling, cpu_count=2) == [4]
        assert oversubscribed_workers(scaling, cpu_count=4) == []

    def test_cli_marks_oversubscribed_points_against_old_baseline(
        self, tmp_path, capsys, monkeypatch
    ):
        # A baseline recorded before oversubscribed_workers (as
        # BENCH_fleet.json was until it was re-recorded): a payload
        # carrying it must still --compare against it, and the printed
        # scaling line marks the points above cpu_count.
        from pathlib import Path

        import repro.bench
        from repro.bench.harness import load_bench_json, write_bench_json
        from repro.cli import main

        baseline = load_bench_json(
            Path(__file__).resolve().parents[1] / "BENCH_fleet.json"
        )
        baseline["derived"].pop("oversubscribed_workers", None)
        baseline_path = tmp_path / "BENCH_fleet_old.json"
        write_bench_json(baseline, baseline_path)
        scaling = baseline["derived"]["worker_scaling"]
        payload = dict(
            baseline,
            cpu_count=2,
            derived=dict(baseline["derived"], oversubscribed_workers=[4]),
        )
        monkeypatch.setattr(
            repro.bench, "run_fleet_bench", lambda **kwargs: payload
        )
        monkeypatch.chdir(tmp_path)
        status = main(
            ["bench", "--suite", "fleet", "--compare", str(baseline_path)]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert f"w4 {scaling['4']:.2f}s (oversubscribed)" in out
        assert f"w2 {scaling['2']:.2f}s," in out
        assert "no regressions" in out


class TestSuite:
    def test_quick_suite_schema_and_determinism_check(self, tmp_path):
        from repro.bench.suites import run_bench

        out = tmp_path / "BENCH_phy.json"
        payload = run_bench(quick=True, out_path=str(out), repeats=1, warmup=0)
        assert out.exists()
        assert payload["format"] == 1
        names = {r["name"] for r in payload["results"]}
        # fig2a.burst_heavy.vectorized is obs gate's GATE_CASE.
        assert {"burst.measure.vectorized", "burst.rows.vectorized",
                "fig2a.search.vectorized",
                "fig2a.burst_heavy.vectorized", "dense.c64.coalesced",
                "dense.c256.coalesced", "dense.c1024.coalesced"} <= names
        assert not any(
            name.startswith(("burst.", "fig2a.", "dense."))
            and name.endswith((".scalar", ".legacy"))
            for name in names
        )
        derived = payload["derived"]
        # Speedups compare live vectorized primitives with the scalar
        # calls they batch; no retired burst path is timed any more.
        assert set(derived["speedups"]) == {
            "antenna.gain", "codebook.gains", "fading.rician",
        }
        assert derived["events_per_s"] > 0
        assert "artifacts_identical" not in derived
        assert payload["cpu_count"] == usable_cores() >= 1
        assert json.loads(out.read_text(encoding="utf-8")) == payload
