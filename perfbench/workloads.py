"""The benchmark's three workloads: inputs from a seed, run phase, checks.

Each workload is a closed loop of batch work run by one process: the
fleets advance one SSB period per step and start the next step when
the last returns; the campaign runs its next cell when the last one
finished.  Work is fixed by ``(seed, seconds)``, so two commits always
time the same work and every artifact can be hashed and compared:
``seconds`` scales the input size so that the workload's ``reps``
repetitions of the run phase fill about ``seconds`` on a quiet 2-core
box.

A shared host's speed swings by up to about 1.8x over seconds, and two
busy processes on a 2-core share see slow stretches of 20 s or more.
So every workload runs in one process (the campaign on its serial
``workers=1`` path), and the benchmark keeps each step's fastest time
over the repetitions: with several short repetitions nearly every step
is timed at least once while the host runs at full speed.

Every workload runs the production configuration: no ``REPRO_*``
switch, default coalesced scheduling, batched multi-station delivery,
the cell index, and ambient telemetry left ``DISABLED``.

A workload is three functions — ``params(seconds)``, ``setup(seed,
params)`` (imports, spec generation, and ``build_fleet`` for the
in-process fleets; everything that :data:`setup_s` times), and
``run(state, workdir, root)`` — plus the unit of its ``work_per_s``,
what one latency step is, and how many repetitions one run makes.
"""

from __future__ import annotations

import hashlib
import tempfile
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List

clock = time.perf_counter


@dataclass
class Outcome:
    """What one run phase produced, plus its output checks."""

    run_s: float
    #: Host seconds of each closed-loop step (slice or cell).
    steps_s: List[float]
    #: What each step is (slice index, cell id), so repetitions of the
    #: same inputs can be matched step by step.
    step_keys: List[object]
    #: Units of work completed (see :attr:`Workload.unit`).
    work: float
    attempted: int
    failed: int
    #: sha256 of the canonical-JSON artifact (information, not a gate).
    digest: str
    notes: Dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str
    step: str
    reps: int
    params: Callable[[int], dict]
    setup: Callable[[int, dict], object]
    run: Callable[..., Outcome]


def _digest(value) -> str:
    from repro.campaign.spec import canonical_json

    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


def _problem(notes: dict, message: str) -> None:
    notes.setdefault("problems", []).append(message)


# ----------------------------------------------------- in-process fleets
def _street_mix_params(seconds: int) -> dict:
    # Cost per link-burst hardly depends on the population, so the
    # population is kept small enough for 100 slices per repetition:
    # ``step_tail_ms`` is then the 90th percentile.
    return {"users": max(1, 6 * seconds), "periods": 100}


def _corridor_dense_params(seconds: int) -> dict:
    return {"users": max(1, 10 * seconds), "cells": 256, "periods": 100}


def _fleet_spec(seed: int, params: dict, name: str):
    """Walkers on a dense corridor when ``params`` names its cells,
    otherwise the paper's street grid with the mobility-blend mix."""
    from repro.fleet.experiment import fleet_spec_for_cell

    duration_s = 0.020 * params["periods"]
    if "cells" in params:
        return fleet_spec_for_cell(
            "uniform", "walk", seed=seed, n_users=params["users"],
            duration_s=duration_s, name=name,
            topology="corridor", n_cells=params["cells"],
        )
    return fleet_spec_for_cell(
        "mobility-blend", "walk", seed=seed, n_users=params["users"],
        duration_s=duration_s, name=name,
    )


def _setup_street_mix(seed: int, params: dict):
    from repro.fleet import runner

    return runner.build_fleet(_fleet_spec(seed, params, "bench-street-mix"))


def _setup_corridor_dense(seed: int, params: dict):
    from repro.fleet import runner

    return runner.build_fleet(_fleet_spec(seed, params, "bench-corridor-dense"))


def _run_fleet(run, workdir: Path, root=nullcontext) -> Outcome:
    """Drive a built fleet one SSB period per step, then aggregate.

    Absolute per-step targets and ``deployment.run`` mirror the fleet
    runner's progress slicing, which is event-for-event the same run as
    one ``run_built_fleet`` call.
    """
    from repro.fleet import runner

    spec = run.spec
    deployment = run.deployment
    sim = deployment.sim
    period_s = deployment.stations[0].frame.ssb_period_s
    n_steps = max(1, round(spec.duration_s / period_s))
    steps: List[float] = []
    with root():
        started_s = clock()
        started = []
        try:
            for protocol in run.protocols:
                protocol.start()
                started.append(protocol)
            for k in range(1, n_steps + 1):
                target = spec.duration_s if k == n_steps else spec.duration_s * k / n_steps
                step_started = clock()
                deployment.run(max(0.0, target - sim.now))
                steps.append(clock() - step_started)
                if sim.stop_requested:
                    break
        finally:
            for protocol in started:
                protocol.stop()
            deployment.stop()
        results = [
            runner.user_result(user, mobile, protocol, spec.duration_s)
            for user, mobile, protocol in zip(run.users, run.mobiles, run.protocols)
        ]
        trial = runner.FleetTrialResult(
            fleet=spec.to_dict(),
            fleet_hash=spec.fleet_hash,
            users=results,
            aggregates=runner.aggregate_users(results, spec.duration_s),
        )
        run_s = clock() - started_s

    # Checks: every burst of every cell was offered to every user and
    # ended measured, declined or skipped-busy; every user present once.
    notes: dict = {}
    offered = sum(
        count for name, count in deployment.metrics.counters().items()
        if name.startswith("bursts.")
    )
    failed = 0
    for mobile in run.mobiles:
        handled = mobile.bursts_measured + mobile.bursts_declined + mobile.bursts_skipped_busy
        if handled != offered:
            failed += 1
            _problem(notes, f"{mobile.mobile_id}: {handled} bursts handled, {offered} offered")
    ids = [user.user_id for user in trial.users]
    expected = [user.user_id for user in run.users]
    presence_ok = (
        ids == expected
        and len(set(ids)) == spec.n_users
        and trial.aggregates["totals"]["users"] == spec.n_users
    )
    if not presence_ok:
        failed += 1
        _problem(notes, "fleet result does not hold every user exactly once")
    measured = sum(mobile.bursts_measured for mobile in run.mobiles)
    notes.update(users=spec.n_users, link_bursts=measured, bursts_offered=offered)
    return Outcome(
        run_s=run_s, steps_s=steps, step_keys=list(range(len(steps))),
        work=measured, attempted=spec.n_users + 1, failed=failed,
        digest=_digest(trial.to_dict()), notes=notes,
    )


# ------------------------------------------------------ handover campaign
def _handover_campaign_params(seconds: int) -> dict:
    return {"trials": max(1, 2 * seconds // 5)}


def _setup_handover_campaign(seed: int, params: dict):
    from repro.campaign import runner  # noqa: F401  (import is set-up work)
    from repro.experiments.fig2c import fig2c_spec

    spec = fig2c_spec(
        n_trials=params["trials"], base_seed=seed * 1000, name="bench-handover"
    )
    return spec, spec.expand()


def _run_handover_campaign(state, workdir: Path, root=nullcontext) -> Outcome:
    from repro.campaign import runner
    from repro.campaign.progress import ProgressReporter
    from repro.campaign.runner import CampaignError, decode_payload
    from repro.campaign.store import ArtifactStore

    spec, cells = state

    class CellTimes(ProgressReporter):
        def __init__(self) -> None:
            self.done: Counter = Counter()
            self.ids: List[str] = []
            self.elapsed: List[float] = []

        def on_cell_done(self, cell, ok, elapsed_s):
            self.done[cell.cell_id] += 1
            if ok:
                self.ids.append(cell.cell_id)
                self.elapsed.append(elapsed_s)

    reporter = CellTimes()
    notes: dict = {}
    failures: Dict[str, str] = {}
    in_memory: Dict[str, dict] = {}
    workdir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workdir) as out:
        with root():
            started_s = clock()
            try:
                result = runner.run_campaign(
                    spec, out_dir=out, workers=1, progress=reporter
                )
                in_memory = result.payloads
            except CampaignError as error:
                failures = error.failures
            run_s = clock() - started_s
        store = ArtifactStore(out)
        on_disk = store.completed_ids()
        payloads = {cell_id: store.load_cell(cell_id)[1] for cell_id in on_disk}

    # Checks: every cell ran exactly once, is on disk, matches the
    # in-memory payload and decodes into its trial dataclass.
    failed = 0
    for cell in cells:
        cell_id = cell.cell_id
        payload = payloads.get(cell_id)
        problem = None
        if cell_id in failures:
            problem = "raised"
        elif reporter.done[cell_id] != 1 or payload is None:
            problem = f"completed {reporter.done[cell_id]}x, on disk: {payload is not None}"
        elif in_memory.get(cell_id) != payload:
            problem = "on-disk payload differs from the in-memory one"
        else:
            try:
                decode_payload(cell.experiment, payload)
            except Exception as error:  # any decode failure is a failed cell
                problem = f"does not decode: {error!r}"
        if problem is not None:
            failed += 1
            _problem(notes, f"cell {cell_id}: {problem}")
    extra = set(on_disk) - {cell.cell_id for cell in cells}
    if extra:
        failed += 1
        _problem(notes, f"{len(extra)} unexpected cells on disk")
    busy_s = sum(reporter.elapsed)
    notes.update(
        cells=len(cells),
        pool_idle_frac=max(0.0, 1.0 - busy_s / run_s),
    )
    return Outcome(
        run_s=run_s, steps_s=reporter.elapsed, step_keys=reporter.ids,
        work=len(payloads), attempted=len(cells) + 1, failed=failed,
        digest=_digest(payloads), notes=notes,
    )


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("street_mix", "link-burst", "SSB period", 10,
                 _street_mix_params, _setup_street_mix, _run_fleet),
        Workload("corridor_dense", "link-burst", "SSB period", 10,
                 _corridor_dense_params, _setup_corridor_dense, _run_fleet),
        Workload("handover_campaign", "cell", "cell", 8,
                 _handover_campaign_params, _setup_handover_campaign,
                 _run_handover_campaign),
    )
}
