"""Tests for the observability substrate (``repro.obs``).

Covers the telemetry hub (spans, counters, histograms, summaries,
ambient install), the logging integration, Chrome trace-event export,
the on-disk summary tooling (load/merge/top/diff), the disabled-overhead
gate, and the ``repro obs`` CLI surface.
"""

import io
import json
import logging

import pytest

from repro.cli import main
from repro.obs import telemetry as telemetry_mod
from repro.obs.export import (
    SIM_PID,
    SPAN_PID,
    chrome_trace,
    chrome_trace_events,
    write_chrome_trace,
)
from repro.obs.log import configure_logging, get_logger, resolve_level
from repro.obs.report import (
    ObsError,
    counter_rows,
    diff_rows,
    load_telemetry,
    merge_summaries,
    sidecar_path,
    top_rows,
    write_telemetry,
)
from repro.obs.telemetry import _NULL_SPAN, Telemetry
from repro.sim.engine import Simulator
from repro.sim.trace import TraceRecorder


def make_summary(**spans):
    """A synthetic telemetry summary: ``name=(count, total_s)``."""
    hub = Telemetry()
    for name, (count, total_s) in spans.items():
        for _ in range(count - 1):
            hub.record_span(name, 0.0, 0.0)
        hub.record_span(name, 0.0, total_s)
    return hub.summary()


class TestTelemetryHub:
    def test_span_aggregates(self):
        hub = Telemetry()
        with hub.span("a"):
            pass
        with hub.span("a"):
            pass
        span = hub.summary()["spans"]["a"]
        assert span["count"] == 2
        assert span["total_s"] >= 0.0

    def test_record_span_raw_form(self):
        hub = Telemetry()
        hub.record_span("x", 1.0, 3.5)
        hub.record_span("x", 0.0, 0.5)
        span = hub.summary()["spans"]["x"]
        assert span["count"] == 2
        assert span["total_s"] == pytest.approx(3.0)

    def test_nested_spans_record_independently(self):
        hub = Telemetry()
        with hub.span("outer"):
            with hub.span("inner"):
                pass
        spans = hub.summary()["spans"]
        assert {name: span["count"] for name, span in spans.items()} == {
            "outer": 1, "inner": 1,
        }

    def test_disabled_span_is_shared_noop(self):
        hub = Telemetry(enabled=False)
        assert hub.span("a") is _NULL_SPAN
        assert hub.span("b") is _NULL_SPAN
        with hub.span("a"):
            pass
        assert hub.summary()["spans"] == {}

    def test_disabled_mutators_record_nothing(self):
        hub = Telemetry(enabled=False)
        hub.record_span("s", 0.0, 1.0)
        hub.incr("c")
        hub.observe("h", 3)
        summary = hub.summary()
        assert summary["spans"] == {}
        assert summary["counters"] == {}
        assert summary["hists"] == {}

    def test_counters(self):
        hub = Telemetry()
        hub.incr("c")
        hub.incr("c", 4)
        assert hub.counter("c") == 5
        assert hub.counter("missing") == 0
        view = hub.counters()
        view["c"] = 99
        assert hub.counter("c") == 5

    def test_histograms_bucket_exact_integers(self):
        hub = Telemetry()
        for value in (3, 3, 7):
            hub.observe("batch", value)
        assert hub.summary()["hists"] == {"batch": {"3": 2, "7": 1}}

    def test_record_events_cap_and_dropped_count(self):
        hub = Telemetry(record_events=True, max_events=2)
        for _ in range(5):
            hub.record_span("s", 0.0, 0.1)
        assert len(hub.span_events()) == 2
        assert hub.summary()["dropped_events"] == 3
        # Aggregates are exact regardless of the cap.
        assert hub.summary()["spans"]["s"]["count"] == 5

    def test_events_off_by_default(self):
        hub = Telemetry()
        hub.record_span("s", 0.0, 0.1)
        assert hub.span_events() == []

    def test_summary_json_round_trip(self):
        hub = Telemetry()
        hub.record_span("s", 0.0, 0.25)
        hub.incr("c", 2)
        hub.observe("h", 4)
        summary = hub.summary()
        assert json.loads(json.dumps(summary)) == summary
        assert summary["spans"]["s"] == {"count": 1, "total_s": 0.25}
        assert summary["hists"]["h"] == {"4": 1}

    def test_merge_summary_accumulates(self):
        a = Telemetry()
        a.record_span("s", 0.0, 1.0)
        a.incr("c", 1)
        a.observe("h", 2)
        b = Telemetry()
        b.record_span("s", 0.0, 2.0)
        b.record_span("t", 0.0, 0.5)
        b.incr("c", 4)
        b.observe("h", 2)
        a.merge_summary(b.summary())
        summary = a.summary()
        assert summary["spans"]["s"] == {"count": 2, "total_s": 3.0}
        assert summary["spans"]["t"]["count"] == 1
        assert summary["counters"]["c"] == 5
        assert summary["hists"]["h"] == {"2": 2}

    def test_merge_summaries_helper(self):
        merged = merge_summaries(
            [make_summary(a=(1, 1.0)), make_summary(a=(2, 3.0), b=(1, 0.5))]
        )
        assert merged["spans"]["a"] == {"count": 3, "total_s": 4.0}
        assert merged["spans"]["b"]["count"] == 1

    def test_use_restores_previous_hub(self):
        before = telemetry_mod.current()
        inner = Telemetry()
        with telemetry_mod.use(inner) as active:
            assert active is inner
            assert telemetry_mod.current() is inner
        assert telemetry_mod.current() is before

    def test_use_none_means_disabled(self):
        with telemetry_mod.use(None):
            assert telemetry_mod.current() is telemetry_mod.DISABLED


class TestEngineWiring:
    def run_sim(self, hub):
        with telemetry_mod.use(hub):
            sim = Simulator()
            sim.schedule(0.1, lambda: None, label="tick.a")
            sim.schedule(0.2, lambda: None, label="tock")
            sim.run_until(1.0)
        return sim

    def test_enabled_hub_sees_event_spans_and_counters(self):
        hub = Telemetry()
        self.run_sim(hub)
        # Span names bucket by the label's first dotted component.
        spans = hub.summary()["spans"]
        assert spans["sim.event.tick"]["count"] == 1
        assert spans["sim.event.tock"]["count"] == 1
        assert hub.counter("sim.events.tick.a") == 1

    def test_disabled_hub_untouched_and_sim_identical(self):
        hub = Telemetry(enabled=False)
        sim = self.run_sim(hub)
        assert hub.summary()["spans"] == {}
        assert sim.events_fired == 2

    def test_stop_requested_persists_after_run(self):
        sim = Simulator()
        sim.schedule(0.1, sim.stop)
        sim.schedule(0.5, lambda: None)
        sim.run_until(1.0)
        assert sim.stop_requested
        sim.run_until(1.0)
        assert not sim.stop_requested


class TestLogging:
    def test_get_logger_prefixes(self):
        assert get_logger("campaign").name == "repro.campaign"
        assert get_logger("repro.fleet").name == "repro.fleet"
        assert get_logger().name == "repro"

    def test_resolve_level(self):
        assert resolve_level() == logging.WARNING
        assert resolve_level(verbosity=1) == logging.INFO
        assert resolve_level(verbosity=3) == logging.DEBUG
        assert resolve_level("error", verbosity=2) == logging.ERROR

    def test_resolve_level_unknown_name(self):
        with pytest.raises(ValueError, match="unknown log level"):
            resolve_level("chatty")

    def test_configure_is_idempotent(self):
        stream = io.StringIO()
        root = configure_logging(verbosity=1, stream=stream)
        configure_logging(verbosity=1, stream=stream)
        marked = [
            h for h in root.handlers
            if getattr(h, "_repro_obs_handler", False)
        ]
        assert len(marked) == 1

    def test_records_reach_the_stream(self):
        stream = io.StringIO()
        configure_logging(verbosity=1, stream=stream)
        get_logger("obs-test").info("hello %d", 7)
        assert "INFO repro.obs-test: hello 7" in stream.getvalue()

    def test_default_level_suppresses_info(self):
        stream = io.StringIO()
        configure_logging(stream=stream)
        get_logger("obs-test").info("quiet")
        assert stream.getvalue() == ""


class TestChromeTraceExport:
    def make_inputs(self):
        hub = Telemetry(record_events=True)
        hub.record_span("phy.burst", 0.0, 0.001)
        hub.record_span("net.batch", 0.002, 0.004)
        trace = TraceRecorder()
        trace.emit(0.5, "fsm.transition", "ue0", edge="B")
        trace.emit(0.8, "rach.msg1", "cellA", result="heard")
        return hub, trace

    def test_span_events_are_complete_events(self):
        hub, trace = self.make_inputs()
        events = chrome_trace_events(hub, trace)
        spans = [e for e in events if e["ph"] == "X"]
        assert len(spans) == 2
        by_name = {e["name"]: e for e in spans}
        assert by_name["net.batch"]["pid"] == SPAN_PID
        # ts/dur are microseconds relative to the hub origin.
        assert by_name["net.batch"]["dur"] == pytest.approx(2000.0)

    def test_trace_events_are_instants_per_node(self):
        hub, trace = self.make_inputs()
        events = chrome_trace_events(hub, trace)
        instants = [e for e in events if e["ph"] == "i"]
        assert len(instants) == 2
        assert {e["pid"] for e in instants} == {SIM_PID}
        tids = {e["tid"] for e in instants}
        assert len(tids) == 2  # one lane per node

    def test_metadata_names_processes(self):
        hub, trace = self.make_inputs()
        events = chrome_trace_events(hub, trace)
        meta = [e for e in events if e["ph"] == "M"]
        assert any(e["name"] == "process_name" for e in meta)

    def test_document_shape_and_json_validity(self):
        hub, trace = self.make_inputs()
        document = chrome_trace(hub, trace)
        parsed = json.loads(json.dumps(document))
        assert isinstance(parsed["traceEvents"], list)
        assert parsed["displayTimeUnit"] == "ms"
        assert parsed["otherData"]["telemetry"]["spans"]

    def test_write_chrome_trace_loads_back(self, tmp_path):
        hub, trace = self.make_inputs()
        path = write_chrome_trace(tmp_path / "trace.json", hub, trace)
        parsed = json.loads(path.read_text(encoding="utf-8"))
        assert parsed["traceEvents"]

    def test_no_trace_recorder_is_fine(self, tmp_path):
        hub, _ = self.make_inputs()
        events = chrome_trace_events(hub, None)
        assert not [e for e in events if e["ph"] == "i"]


class TestReportTooling:
    def test_write_and_load_round_trip(self, tmp_path):
        summary = make_summary(a=(2, 1.0))
        path = write_telemetry(summary, tmp_path / "t.json")
        assert load_telemetry(path) == summary

    def test_load_directory_merges_cells(self, tmp_path):
        (tmp_path / "telemetry").mkdir()
        write_telemetry(
            make_summary(a=(1, 1.0)), tmp_path / "telemetry" / "c1.json"
        )
        write_telemetry(
            make_summary(a=(1, 2.0)), tmp_path / "telemetry" / "c2.json"
        )
        merged = load_telemetry(tmp_path)
        assert merged["spans"]["a"] == {"count": 2, "total_s": 3.0}

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(ObsError, match="no telemetry artifact"):
            load_telemetry(tmp_path / "absent.json")

    def test_load_telemetry_dir_directly(self, tmp_path):
        # Pointing at the telemetry dir itself (not the campaign root)
        # works too.
        write_telemetry(make_summary(a=(1, 1.0)), tmp_path / "c1.json")
        write_telemetry(make_summary(a=(1, 2.0)), tmp_path / "c2.json")
        merged = load_telemetry(tmp_path)
        assert merged["spans"]["a"] == {"count": 2, "total_s": 3.0}

    def test_load_empty_directory_raises(self, tmp_path):
        with pytest.raises(ObsError, match="no telemetry summaries"):
            load_telemetry(tmp_path)

    def test_load_campaign_root_without_telemetry_raises_friendly(
        self, tmp_path
    ):
        (tmp_path / "manifest.json").write_text("{}", encoding="utf-8")
        with pytest.raises(ObsError, match="no telemetry summaries"):
            load_telemetry(tmp_path)

    def test_corrupt_sidecar_in_directory_warns_not_aborts(
        self, tmp_path, caplog
    ):
        write_telemetry(make_summary(a=(1, 1.0)), tmp_path / "good.json")
        (tmp_path / "torn.json").write_text("{not json", encoding="utf-8")
        # An earlier configure_logging() may have stopped "repro"
        # records propagating to the root logger caplog listens on.
        root = logging.getLogger("repro")
        previous = root.propagate
        root.propagate = True
        try:
            with caplog.at_level("WARNING", logger="repro.obs"):
                merged = load_telemetry(tmp_path)
        finally:
            root.propagate = previous
        # The good sidecar still merges; the corrupt one is counted in
        # exactly one warning line naming the first error.
        assert merged["spans"]["a"] == {"count": 1, "total_s": 1.0}
        warnings = [record for record in caplog.records
                    if "skipped" in record.getMessage()]
        assert len(warnings) == 1
        message = warnings[0].getMessage()
        assert "skipped 1 unreadable telemetry" in message
        assert "torn.json" in message

    def test_all_sidecars_corrupt_raises(self, tmp_path):
        (tmp_path / "a.json").write_text("{not json", encoding="utf-8")
        (tmp_path / "b.json").write_text(
            json.dumps({"results": []}, sort_keys=True), encoding="utf-8"
        )
        with pytest.raises(ObsError, match="all 2 telemetry summaries"):
            load_telemetry(tmp_path)

    def test_load_malformed_raises(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(ObsError, match="malformed"):
            load_telemetry(bad)

    def test_load_wrong_shape_raises(self, tmp_path):
        wrong = tmp_path / "wrong.json"
        wrong.write_text(json.dumps({"results": []}), encoding="utf-8")
        with pytest.raises(ObsError, match="not a telemetry summary"):
            load_telemetry(wrong)

    def test_sidecar_path(self):
        assert sidecar_path("out/fleet.json").name == "fleet.telemetry.json"
        assert sidecar_path("artifact").name == "artifact.telemetry.json"

    def test_top_rows_ordered_by_total(self):
        summary = make_summary(cold=(1, 0.1), hot=(10, 5.0))
        headers, rows = top_rows(summary)
        assert headers[0] == "span"
        assert [row[0] for row in rows] == ["hot", "cold"]
        assert rows[0][1] == 10
        # Shares sum to ~100%.
        assert sum(row[4] for row in rows) == pytest.approx(100.0)

    def test_top_rows_limit(self):
        summary = make_summary(a=(1, 3.0), b=(1, 2.0), c=(1, 1.0))
        _, rows = top_rows(summary, limit=2)
        assert [row[0] for row in rows] == ["a", "b"]

    def test_counter_rows(self):
        hub = Telemetry()
        hub.incr("x", 5)
        hub.incr("y", 9)
        _, rows = counter_rows(hub.summary())
        assert rows == [["y", 9], ["x", 5]]

    def test_diff_rows_ratio_and_one_sided(self):
        a = make_summary(shared=(1, 1.0), gone=(1, 0.5))
        b = make_summary(shared=(1, 2.0), new=(1, 0.25))
        _, rows = diff_rows(a, b)
        by_name = {row[0]: row for row in rows}
        assert by_name["shared"][3] == "2.00x"
        assert by_name["gone"][3] == "-"
        assert by_name["new"][1] == "-"


class TestOverheadGate:
    def write_baseline(self, tmp_path, median_s):
        payload = {
            "format": 1,
            "results": [
                {
                    "name": "fig2a.burst_heavy.vectorized",
                    "median_s": median_s,
                    "repeats": 1,
                    "warmup": 0,
                    "meta": {
                        "scenario": "walk",
                        "ssb_per_burst": 36,
                        "duration_s": 0.2,
                        "cells": 3,
                    },
                }
            ],
        }
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return path

    def test_gate_passes_against_generous_baseline(self, tmp_path):
        from repro.bench.obs_gate import run_overhead_gate

        record = run_overhead_gate(
            self.write_baseline(tmp_path, median_s=60.0), tolerance=0.02
        )
        assert record["passed"]
        assert record["ratio"] < 1.0
        assert record["meta"]["duration_s"] == 0.2

    def test_gate_fails_against_impossible_baseline(self, tmp_path):
        from repro.bench.obs_gate import run_overhead_gate

        record = run_overhead_gate(
            self.write_baseline(tmp_path, median_s=1e-9), tolerance=0.02
        )
        assert not record["passed"]

    def test_gate_rejects_negative_tolerance(self, tmp_path):
        from repro.bench.harness import BenchError
        from repro.bench.obs_gate import run_overhead_gate

        with pytest.raises(BenchError, match="non-negative"):
            run_overhead_gate(
                self.write_baseline(tmp_path, 1.0), tolerance=-0.1
            )

    def test_gate_requires_the_case(self, tmp_path):
        from repro.bench.harness import BenchError
        from repro.bench.obs_gate import run_overhead_gate

        path = tmp_path / "empty.json"
        path.write_text(
            json.dumps({"results": [{"name": "other", "median_s": 1.0}]}),
            encoding="utf-8",
        )
        with pytest.raises(BenchError, match="no 'fig2a.burst_heavy"):
            run_overhead_gate(path)


class TestObsCli:
    def test_export_writes_valid_chrome_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        status = main(
            [
                "obs", "export", "--users", "2", "--duration", "0.5",
                "--out", str(out),
            ]
        )
        assert status == 0
        parsed = json.loads(out.read_text(encoding="utf-8"))
        phases = {event["ph"] for event in parsed["traceEvents"]}
        assert {"X", "i", "M"} <= phases
        assert parsed["otherData"]["telemetry"]["spans"]
        assert "wrote" in capsys.readouterr().out

    def test_export_asks_the_fleet_for_its_trace(self, tmp_path, capsys):
        # Fleets record no simulation trace unless asked; export asks.
        out = tmp_path / "trace.json"
        assert main(
            ["obs", "export", "--users", "2", "--duration", "0.5",
             "--out", str(out)]
        ) == 0
        parsed = json.loads(out.read_text(encoding="utf-8"))
        events = [e for e in parsed["traceEvents"] if e.get("cat") == "trace"]
        assert len(events) > 0
        assert f"{len(events)} trace events" in capsys.readouterr().out

    def test_fleet_run_telemetry_sidecar_then_top_and_diff(
        self, tmp_path, capsys
    ):
        out = tmp_path / "fleet.json"
        status = main(
            [
                "fleet", "run", "--users", "2", "--duration", "0.5",
                "--telemetry", "--quiet", "--out", str(out),
            ]
        )
        assert status == 0
        side = tmp_path / "fleet.telemetry.json"
        assert side.exists()
        # The artifact itself carries no telemetry.
        artifact = json.loads(out.read_text(encoding="utf-8"))
        assert "telemetry" not in artifact
        capsys.readouterr()
        assert main(["obs", "top", str(side), "--counters"]) == 0
        assert "hottest spans" in capsys.readouterr().out
        assert main(["obs", "diff", str(side), str(side)]) == 0
        assert "1.00x" in capsys.readouterr().out
        # summarize folds the sidecar in...
        assert main(["fleet", "summarize", "--artifact", str(out)]) == 0
        assert "telemetry sidecar" in capsys.readouterr().out
        # ...and stays silent once it is gone.
        side.unlink()
        assert main(["fleet", "summarize", "--artifact", str(out)]) == 0
        assert "telemetry sidecar" not in capsys.readouterr().out

    def test_campaign_run_telemetry_sidecars(self, tmp_path, capsys):
        out = tmp_path / "camp"
        status = main(
            [
                "campaign", "run", "--experiment", "search",
                "--scenarios", "walk", "--protocols", "narrow",
                "--seeds", "1", "--quiet", "--telemetry",
                "--out", str(out),
            ]
        )
        assert status == 0
        sidecars = list((out / "telemetry").glob("*.json"))
        assert len(sidecars) == 1
        capsys.readouterr()
        assert main(["obs", "top", str(out)]) == 0
        assert "hottest spans" in capsys.readouterr().out
        assert main(["campaign", "summarize", "--out", str(out)]) == 0
        assert "telemetry sidecar" in capsys.readouterr().out

    def test_obs_top_missing_artifact_exits_2(self, tmp_path, capsys):
        status = main(["obs", "top", str(tmp_path / "nope.json")])
        assert status == 2
        assert "error:" in capsys.readouterr().err

    def test_gate_cli_failure_exits_1(self, tmp_path, capsys):
        baseline = TestOverheadGate().write_baseline(tmp_path, median_s=1e-9)
        status = main(
            ["obs", "gate", "--baseline", str(baseline), "--repeats", "1"]
        )
        assert status == 1
        assert "OVERHEAD REGRESSION" in capsys.readouterr().err
