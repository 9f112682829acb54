"""Benchmark orchestration: set-up samples, timed run, traced run, report.

:func:`measure` is what ``perfbench/run.py`` prints.  With
``trace=False`` it reports the end-to-end metrics of repeated
production runs; with ``trace=True`` it runs the workload untraced and
then traced (:mod:`perfbench.tracer`) and reports the per-layer metrics.  The metric
names and units here are the ones ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from perfbench.tracer import LAYERS, Tracer
from perfbench.workloads import WORKLOADS, Outcome, clock

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".bench_work"

#: Fresh-process set-up samples per untraced run (the run's own is one).
SETUP_SAMPLES = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "work_per_s": "1/s",
    "step_p50_ms": "ms",
    "step_tail_ms": "ms",
    "peak_rss_mb": "MiB",
}

PER_LAYER_UNITS = {
    "sim.events": "count",
    "sim.self_s": "s",
    "sim.self_us_per_event": "us",
    "net.tick.count": "count",
    "net.tick.self_s": "s",
    "net.tick.self_us_per_offered": "us",
    "net.offered": "count",
    "net.admitted": "count",
    "net.declined": "count",
    "net.skipped_busy": "count",
    "net.pruned": "count",
    "net.prune_frac": "ratio",
    "mobility.poses": "count",
    "mobility.self_s": "s",
    "mobility.us_per_pose": "us",
    "phy.link.rows": "count",
    "phy.link.self_s": "s",
    "phy.link.self_us_per_row": "us",
    "phy.gains.self_s": "s",
    "phy.gains.us_per_row": "us",
    "phy.channel.self_s": "s",
    "phy.channel.us_per_row": "us",
    "phy.links_created": "count",
    "phy.rng.streams": "count",
    "phy.rng.stream_us": "us",
    "core.choose_rx_beam.count": "count",
    "core.choose_rx_beam.self_s": "s",
    "core.on_measurement.count": "count",
    "core.on_measurement.self_s": "s",
    "core.us_per_measurement": "us",
    "core.handovers": "count",
    "core.fsm_transitions": "count",
    "fleet.synth_us_per_user": "us",
    "fleet.build_us_per_user": "us",
    "fleet.aggregate_s": "s",
    "fleet.accumulate_us_per_user": "us",
    "campaign.task_s": "s",
    "campaign.pool.idle_frac": "ratio",
    "campaign.store.write_s": "s",
    "campaign.payload_bytes": "bytes",
    **{f"layer.{layer}.self_s": "s" for layer in LAYERS},
    "trace.run_s": "s",
    "trace.untraced_run_s": "s",
    "trace.overhead": "ratio",
}


class InvalidRun(RuntimeError):
    """The machine cannot run the workload as specified (not reported)."""


# ------------------------------------------------------------ statistics
def tail_percentile(values: List[float]) -> Tuple[int, float]:
    """Highest whole percentile with at least ten samples beyond it.

    Nearest-rank: percentile ``p`` is the ``ceil(p * n / 100)``-th
    smallest value.  With ten or fewer samples no percentile qualifies,
    and the maximum is returned as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return 100, ordered[-1]
    p = 100 * (n - 10) // n
    rank = max(1, (p * n + 99) // 100)
    return p, ordered[rank - 1]


def fastest_steps(outcomes: List[Outcome]) -> List[float]:
    """Each step's fastest time over repetitions of the same inputs,
    matched by :attr:`Outcome.step_keys`."""
    best: Dict[object, float] = {}
    for o in outcomes:
        for key, step_s in zip(o.step_keys, o.steps_s):
            best[key] = min(step_s, best.get(key, math.inf))
    return list(best.values())


def fastest_run_s(outcomes: List[Outcome]) -> float:
    """Run-phase time, from the fastest times of its parts.

    A run is its steps one after another plus the work around them
    (protocol start and aggregation, or the campaign's store writes),
    so it is the sum of :func:`fastest_steps` plus the fastest
    repetition's remainder.
    """
    rest = min(o.run_s - sum(o.steps_s) for o in outcomes)
    return sum(fastest_steps(outcomes)) + rest


def _per(total: float, units: float, scale: float = 1.0) -> float:
    return scale * total / units if units else 0.0


# ---------------------------------------------------------- environment
def machine_record() -> dict:
    import numpy

    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def main_max_rss_kb() -> int:
    from repro.obs import resources

    return resources.max_rss_kb() or 0


def _assert_production() -> None:
    from repro.obs import telemetry

    if telemetry.current() is not telemetry.DISABLED:
        raise InvalidRun("ambient telemetry must be DISABLED while timing")
    switches = sorted(key for key in os.environ if key.startswith("REPRO_"))
    if switches:
        raise InvalidRun(f"REPRO_* switches set: {', '.join(switches)}")


# ------------------------------------------------------------- set-up
def setup_probe(name: str, seed: int, seconds: int, entry_s: float) -> float:
    """Set up once (the fresh process's whole set-up); return seconds."""
    workload = WORKLOADS[name]
    workload.setup(seed, workload.params(seconds))
    return clock() - entry_s


def _probe_in_fresh_process(name: str, seed: int, seconds: int) -> float:
    command = [
        sys.executable, str(ROOT / "perfbench" / "run.py"), "--setup-probe",
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=120,
        check=True,
    )
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


# -------------------------------------------------------------- measure
def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(
    name: str,
    seed: int,
    seconds: int,
    trace: bool,
    entry_s: Optional[float] = None,
    params: Optional[dict] = None,
    setup_samples: int = SETUP_SAMPLES,
) -> Tuple[dict, dict]:
    """Run one workload; return ``(report, info)``.

    ``report`` is the contract object (``correct``, ``attempted``,
    ``failed``, ``metrics``); ``info`` records the machine, the inputs,
    per-workload aliases of the generic metrics, artifact digests and
    any failed check.  ``entry_s`` is the process-entry clock reading
    the first set-up sample counts from.
    """
    workload = WORKLOADS[name]
    entry_s = clock() if entry_s is None else entry_s
    params = workload.params(seconds) if params is None else params
    _assert_production()
    # The process's own set-up is the first set-up sample, so it runs
    # before anything the set-up probes do not do.
    state = None if trace else workload.setup(seed, params)
    first_setup_s = clock() - entry_s
    info: dict = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "params": params, "machine": machine_record(),
        "work_unit": workload.unit, "step": workload.step,
    }
    if trace:
        report = _measure_traced(workload, seed, params, info)
    else:
        first = workload.run(state, WORKDIR)
        del state  # a live fleet would slow the next repetitions' GC
        report = _measure_untraced(
            workload, seed, seconds, params, first,
            [first_setup_s], setup_samples, info,
        )
    return report, info


def _measure_untraced(workload, seed, seconds, params, first,
                      setups, setup_samples, info) -> dict:
    """``workload.reps`` identical repetitions; times are the fastest of them.

    Each step (slice or cell) keeps its fastest time over the
    repetitions (:func:`fastest_steps`); ``step_p50_ms`` and
    ``step_tail_ms`` (:func:`tail_percentile`) are taken over those, and
    ``run_s`` is built from them (:func:`fastest_run_s`).  A slowdown
    of the shared host then only shows if it covers a step in every
    repetition.

    Each repetition sets up afresh and runs the same inputs, so its
    artifact must hash the same as the first one's.  The first set-up
    is this fresh process's own and is one set-up sample; the rest come
    from :func:`setup_probe` in fresh processes, one after each
    repetition so that they spread over the whole run.
    """
    outcomes = [first]
    for rep in range(1, max(workload.reps, setup_samples)):
        if rep < setup_samples:
            setups.append(_probe_in_fresh_process(workload.name, seed, seconds))
        if rep < workload.reps:
            outcomes.append(
                workload.run(workload.setup(seed, params), WORKDIR))
    steps = fastest_steps(outcomes)
    run_s = fastest_run_s(outcomes)
    tail = tail_percentile(steps)
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": run_s,
        "work_per_s": first.work / run_s,
        "step_p50_ms": 1e3 * statistics.median(steps),
        "step_tail_ms": 1e3 * tail[1],
        "peak_rss_mb": main_max_rss_kb() / 1024.0,
    }
    attempted = sum(o.attempted for o in outcomes) + 2
    failed = sum(o.failed for o in outcomes)
    problems = [p for o in outcomes for p in o.notes.get("problems", [])]
    if len({o.digest for o in outcomes}) != 1:
        failed += 1
        problems.append("repetitions of the same inputs produced different artifacts")
    bad = [k for k, v in metrics.items() if not (math.isfinite(v) and v > 0)]
    if bad:
        failed += 1
        problems.append(f"non-positive metrics: {bad}")
    notes = outcomes[0].notes
    info.update(
        reps=workload.reps, rep_run_s=[o.run_s for o in outcomes], setup_samples_s=setups,
        steps_per_rep=len(outcomes[0].steps_s), tail_percentile=tail[0],
        digest=outcomes[0].digest,
        notes={k: v for k, v in notes.items() if k != "problems"},
        problems=problems, aliases=_aliases(workload.name, metrics, notes),
        failed_frac=failed / attempted,
    )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: _metric(v, END_TO_END_UNITS[k]) for k, v in metrics.items()},
    }


def _aliases(name: str, metrics: dict, notes: dict) -> dict:
    """The generic metrics under the names a reader of each workload expects."""
    if name in ("street_mix", "corridor_dense"):
        return {"link_bursts_per_s": metrics["work_per_s"],
                "users_per_s": notes["users"] / metrics["run_s"],
                "slice_p50_ms": metrics["step_p50_ms"],
                "slice_tail_ms": metrics["step_tail_ms"]}
    return {"cells_per_s": metrics["work_per_s"],
            "cell_p50_s": metrics["step_p50_ms"] / 1e3,
            "cell_tail_s": metrics["step_tail_ms"] / 1e3,
            "campaign.pool.idle_frac": notes["pool_idle_frac"]}


def _measure_traced(workload, seed, params, info) -> dict:
    """An untraced run, then a traced run of the same inputs."""
    baseline = workload.run(workload.setup(seed, params), WORKDIR)
    tracer = Tracer()
    tracer.install()
    try:
        at_install = tracer.snapshot()
        state = workload.setup(seed, params)
        before_run = tracer.snapshot()
        traced = workload.run(
            state, WORKDIR, lambda: tracer.span("bench.run", "other")
        )
        del state
        run_totals = tracer.delta(before_run)
        all_totals = tracer.delta(at_install)
    finally:
        tracer.uninstall()
    spans_path = tracer.dump(WORKDIR / f"spans-{workload.name}.npz")

    metrics = layer_metrics(run_totals, all_totals)
    metrics["campaign.pool.idle_frac"] = baseline.notes.get("pool_idle_frac", 0.0)
    metrics["trace.untraced_run_s"] = baseline.run_s
    metrics["trace.overhead"] = metrics["trace.run_s"] / baseline.run_s

    outcomes = (baseline, traced)
    attempted = sum(o.attempted for o in outcomes) + 2
    failed = sum(o.failed for o in outcomes)
    problems = [p for o in outcomes for p in o.notes.get("problems", [])]
    if len({o.digest for o in outcomes}) != 1:
        failed += 1
        problems.append("traced and untraced artifacts differ")
    if metrics["phy.link.rows"] + metrics["net.pruned"] != metrics["net.admitted"]:
        failed += 1
        problems.append("phy.link.rows + net.pruned != net.admitted")
    accounted = sum(metrics[f"layer.{layer}.self_s"] for layer in LAYERS)
    info.update(
        digest=traced.digest, problems=problems, spans=str(spans_path),
        spans_recorded=sum(tracer.count), spans_dropped=tracer.dropped,
        layer_self_s_sum=accounted, failed_frac=failed / attempted,
    )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: _metric(v, PER_LAYER_UNITS[k]) for k, v in metrics.items()},
    }


def layer_metrics(run, setup_and_run) -> Dict[str, float]:
    """Per-layer metrics from the traced run's span totals.

    ``run`` covers the run phase; ``setup_and_run`` also covers set-up,
    where the in-process workloads synthesize and build their fleet.
    """
    rows = run.counter("phy.link.rows")
    events = run.counter("sim.events")
    offered = run.counter("net.offered")
    admitted = run.counter("net.admitted")
    pruned = run.counter("net.pruned")
    poses = run.counter("mobility.poses")
    measurements = run.count("core.on_measurement")
    streams = run.counter("phy.rng.streams")
    sim_self = run.self_s("sim.run_until", "cb.sim")
    tick_self = run.self_s("net.tick")
    mobility_self = run.self_s("mobility.sample_poses", "mobility.pose_at")
    link_self = run.self_s("phy.link")
    gains_self = run.self_s("phy.gains")
    channel_self = run.self_s("phy.channel")
    on_measurement_self = run.self_s("core.on_measurement")
    synth_users = setup_and_run.counter("fleet.synth.users")
    built_users = setup_and_run.counter("fleet.build.users")
    accumulated = run.count("fleet.accumulate")
    tasks = run.count("campaign.task")
    metrics = {
        "sim.events": events,
        "sim.self_s": sim_self,
        "sim.self_us_per_event": _per(sim_self, events, 1e6),
        "net.tick.count": run.count("net.tick"),
        "net.tick.self_s": tick_self,
        "net.tick.self_us_per_offered": _per(tick_self, offered, 1e6),
        "net.offered": offered,
        "net.admitted": admitted,
        "net.declined": run.counter("net.declined"),
        "net.skipped_busy": run.counter("net.skipped_busy"),
        "net.pruned": pruned,
        "net.prune_frac": _per(pruned, admitted),
        "mobility.poses": poses,
        "mobility.self_s": mobility_self,
        "mobility.us_per_pose": _per(mobility_self, poses, 1e6),
        "phy.link.rows": rows,
        "phy.link.self_s": link_self,
        "phy.link.self_us_per_row": _per(link_self, rows, 1e6),
        "phy.gains.self_s": gains_self,
        "phy.gains.us_per_row": _per(gains_self, rows, 1e6),
        "phy.channel.self_s": channel_self,
        "phy.channel.us_per_row": _per(channel_self, rows, 1e6),
        "phy.links_created": run.counter("phy.links_created"),
        "phy.rng.streams": streams,
        "phy.rng.stream_us": _per(run.inclusive("phy.rng"), streams, 1e6),
        "core.choose_rx_beam.count": run.count("core.choose_rx_beam"),
        "core.choose_rx_beam.self_s": run.self_s("core.choose_rx_beam"),
        "core.on_measurement.count": measurements,
        "core.on_measurement.self_s": on_measurement_self,
        "core.us_per_measurement": _per(on_measurement_self, measurements, 1e6),
        "core.handovers": run.counter("core.handovers"),
        "core.fsm_transitions": run.counter("core.fsm_transitions"),
        "fleet.synth_us_per_user": _per(
            setup_and_run.inclusive("fleet.synth_users"),
            synth_users, 1e6),
        "fleet.build_us_per_user": _per(
            setup_and_run.inclusive("fleet.build")
            - setup_and_run.inclusive("fleet.synth_users"),
            built_users, 1e6),
        "fleet.aggregate_s": run.self_s("fleet.user_result", "fleet.aggregate_users"),
        "fleet.accumulate_us_per_user": _per(
            run.inclusive("fleet.accumulate"), accumulated, 1e6),
        "campaign.task_s": _per(run.inclusive("campaign.task"), tasks),
        "campaign.pool.idle_frac": 0.0,
        "campaign.store.write_s": run.inclusive("campaign.store.write"),
        "campaign.payload_bytes": _per(run.counter("campaign.payload_bytes"),
                                       run.counter("campaign.payload_bytes.files")),
    }
    for layer, self_s in run.layer_self_s().items():
        metrics[f"layer.{layer}.self_s"] = self_s
    metrics["trace.run_s"] = run.inclusive("bench.run")
    return metrics
