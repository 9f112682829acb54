"""The benchmark's own tests: contract shape, tiny workloads, tracing.

Run with ``python -m pytest perfbench`` from the repository root.
"""

import hashlib
import json
import re
from pathlib import Path

import pytest

from perfbench import bench
from perfbench.tracer import Tracer
from perfbench.workloads import WORKLOADS, Outcome

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: Inputs small enough for the tier-1 suite, one per workload.
TINY = {
    "street_mix": {"users": 12, "periods": 5},
    "corridor_dense": {"users": 12, "cells": 16, "periods": 5},
    "handover_campaign": {"trials": 1},
}


def _declared(section):
    return {entry["name"]: entry["unit"] for entry in BENCHMARK[section]}


def test_benchmark_json_declares_what_the_benchmark_reports():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert _declared("end_to_end") == bench.END_TO_END_UNITS
    assert _declared("per_layer") == bench.PER_LAYER_UNITS
    bounds = {e["name"]: e["bound"] for e in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    for section in ("workloads", "end_to_end", "per_layer"):
        for entry in BENCHMARK[section]:
            assert NAME.fullmatch(entry["name"]), entry["name"]


def test_tail_percentile_keeps_ten_samples_beyond():
    values = [float(v) for v in range(40)]
    percentile, tail = bench.tail_percentile(values)
    assert percentile == 75
    assert sum(v > tail for v in values) == 10


def test_fastest_times_match_steps_by_key():
    def outcome(run_s, steps, keys):
        return Outcome(run_s=run_s, steps_s=steps, step_keys=keys, work=1,
                       attempted=1, failed=0, digest="")

    reps = [outcome(1.0, [0.2, 0.5], ["a", "b"]),
            outcome(0.9, [0.3, 0.4], ["b", "a"])]
    assert sorted(bench.fastest_steps(reps)) == [0.2, 0.3]
    # Fastest steps (0.5 s) plus the fastest time outside them (0.2 s).
    assert bench.fastest_run_s(reps) == pytest.approx(0.7)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_workload_passes_its_checks(name):
    report, info = bench.measure(name, seed=3, seconds=1, trace=False,
                                 params=TINY[name], setup_samples=1)
    assert report["failed"] == 0, info["problems"]
    assert report["correct"]
    assert set(report["metrics"]) == set(_declared("end_to_end"))
    for metric in report["metrics"].values():
        assert metric["value"] > 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_reports_layers_and_restores_wrappers(name):
    probe = Tracer()
    probe.install()
    patched = probe.patched()
    probe.uninstall()
    before = [vars(owner).get(attr) for owner, attr, _ in patched]
    assert all(b is original for b, (_, _, original) in zip(before, patched))

    report, info = bench.measure(name, seed=3, seconds=1, trace=True,
                                 params=TINY[name])

    assert [vars(owner).get(attr) for owner, attr, _ in patched] == before
    assert report["failed"] == 0, info["problems"]
    metrics = {k: v["value"] for k, v in report["metrics"].items()}
    assert set(metrics) == set(_declared("per_layer"))
    assert metrics["phy.link.rows"] + metrics["net.pruned"] == metrics["net.admitted"]
    layers = sum(v for k, v in metrics.items() if k.startswith("layer."))
    assert layers == pytest.approx(metrics["trace.run_s"], rel=1e-6)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tracing_never_changes_artifacts(name):
    workload = WORKLOADS[name]
    params = TINY[name]
    untraced = workload.run(workload.setup(5, params), bench.WORKDIR)
    tracer = Tracer()
    tracer.install()
    try:
        traced = workload.run(workload.setup(5, params), bench.WORKDIR)
    finally:
        tracer.uninstall()
    assert sum(tracer.count) > 0
    assert traced.digest == untraced.digest


def test_sliced_fleet_run_matches_the_fleet_runner():
    from repro.campaign.spec import canonical_json
    from repro.fleet.runner import run_fleet_trial

    workload = WORKLOADS["street_mix"]
    run = workload.setup(7, TINY["street_mix"])
    sliced = workload.run(run, bench.WORKDIR)
    reference = run_fleet_trial(run.spec).to_dict()
    assert sliced.digest == hashlib.sha256(
        canonical_json(reference).encode("utf-8")
    ).hexdigest()
