"""Fleet execution: one deployment, N users, one batched burst grid.

:func:`build_fleet` materializes a :class:`~repro.fleet.spec.FleetSpec`
onto the paper's street grid — every user gets a mobility trajectory
(driven by the user's own derived seed), a receive codebook, and a
protocol instance, all resolved through :mod:`repro.registry` — and
:func:`run_fleet_trial` runs it to completion and folds the per-user
event logs into fleet metrics.

A fleet deployment with more than one user delivers each coalesced SSB
tick through the deployment's cross-user batched path (one
``measure_burst_multi`` grid per tick); a one-user fleet or shard takes
the single-link ``measure_burst`` path.  A user's outcome is the same
on either branch, which is why sharded runs merge byte-identically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.analysis.stats import QuantileReservoir
from repro.campaign.runner import CampaignError, Task, TaskRun, progress_sink
from repro.campaign.spec import SpecError, build_config, canonical_json
from repro.campaign.store import STORE_FORMAT, StoreError, TaskStore
from repro.fleet.metrics import (
    FleetAccumulator,
    FleetUserResult,
    aggregate_users,
    user_result,
)
from repro.fleet.progress import (
    FleetProgress,
    QueueShardProgress,
    ShardProgressAggregator,
)
from repro.fleet.spec import (
    FleetShard,
    FleetSpec,
    UserSpec,
    partition_fleet,
    synthesize_users,
)
from repro.mobility.base import TimeShifted
from repro.net.deployment import Deployment
from repro.net.mobile import Mobile
from repro.obs import telemetry as _telemetry
from repro.obs.monitor import MonitorConfig, StallDetector
from repro.obs.telemetry import wall_clock
from repro.obs.log import get_logger

PathLike = Union[str, Path]

_log = get_logger("fleet")


class FleetError(CampaignError):
    """Raised for sharded-fleet misuse or failed shards.

    Subclasses :class:`~repro.campaign.runner.CampaignError` — the
    shards run on the campaign worker pool and the CLI maps both to the
    same exit conventions.
    """

#: Run-phase slices between :meth:`FleetProgress.on_run` calls.  Slicing
#: only happens when a reporter is installed, and is event-for-event
#: identical to a single ``run_until`` (pinned by the equivalence suite).
PROGRESS_SLICES = 20

#: Fleet artifact schema version.
FLEET_FORMAT = 1


@dataclass
class FleetRun:
    """A built (not yet run) fleet: deployment plus resolved population."""

    spec: FleetSpec
    deployment: Deployment
    users: List[UserSpec]
    mobiles: List[Mobile]
    protocols: List[object]


@dataclass(frozen=True)
class FleetTrialResult:
    """Outcome of one fleet run: spec identity + per-user results + CDFs.

    ``users`` is ``None`` for streaming (large-N sharded) runs — the
    per-user results were folded into the aggregates as they were
    produced and never retained, which is what keeps artifact size and
    merge memory flat in the population size.
    """

    fleet: dict
    fleet_hash: str
    users: Optional[List[FleetUserResult]]
    aggregates: dict

    def to_dict(self) -> dict:
        return {
            "format": FLEET_FORMAT,
            "fleet": self.fleet,
            "fleet_hash": self.fleet_hash,
            "users": (
                None
                if self.users is None
                else [user.to_dict() for user in self.users]
            ),
            "aggregates": self.aggregates,
        }

    @classmethod
    def from_dict(cls, record: Mapping) -> "FleetTrialResult":
        try:
            return cls(
                fleet=dict(record["fleet"]),
                fleet_hash=str(record["fleet_hash"]),
                users=(
                    None
                    if record["users"] is None
                    else [FleetUserResult.from_dict(u) for u in record["users"]]
                ),
                aggregates=dict(record["aggregates"]),
            )
        except (KeyError, TypeError, AttributeError) as error:
            raise SpecError(
                f"not a fleet artifact (missing or malformed field: {error})"
            ) from error


def build_fleet(
    spec: FleetSpec,
    progress: Optional[FleetProgress] = None,
    users: Optional[List[UserSpec]] = None,
    trace: bool = False,
) -> FleetRun:
    """Materialize a fleet spec onto the street grid.

    Construction order is user-index order throughout (mobiles, then
    each user's protocol), so any worker count driving this via a
    campaign sees identical RNG stream creation and event scheduling.  ``progress`` receives one
    :meth:`~repro.fleet.progress.FleetProgress.on_build` call per user.

    ``users`` restricts the build to a subset of the population (a
    shard); every user's streams and outcomes are unchanged by the
    subsetting because fleet deployments run with per-link decode
    streams.

    The deployment records a simulation trace only with ``trace=True``
    (``repro obs export`` asks for one).  By default the recorder is
    off: :func:`run_fleet_trial`, fleet campaign cells and shard
    workers never read a trace, and an O(events) recorder would only
    cost time and memory.  A trace is never a simulation input, so the
    artifact bytes are the same either way.
    """
    from repro.experiments.scenarios import (
        build_corridor_deployment,
        build_street_grid_deployment,
    )
    from repro.net.deployment import DeploymentConfig
    from repro.registry import SCENARIOS, make_codebook, make_protocol

    _log.info("building fleet %r: %d users, seed %d",
              spec.name, spec.n_users, spec.seed)
    # The run never advances past duration_s, so the spatial cell index
    # may bound horizon-dependent trajectories over exactly that window.
    config = DeploymentConfig(
        trace_enabled=trace, per_link_decode=True, horizon_s=spec.duration_s
    )
    if spec.topology == "corridor":
        deployment = build_corridor_deployment(
            spec.seed,
            config=config,
            n_cells=spec.n_cells,
            cell_pitch_m=spec.cell_pitch_m,
            phase_slots=spec.phase_slots,
            pathloss_exponent=spec.pathloss_exponent,
            bs_beamwidth_deg=spec.bs_beamwidth_deg,
        )
    else:
        deployment = build_street_grid_deployment(
            spec.seed,
            config=config,
            n_cells=spec.n_cells,
            bs_beamwidth_deg=spec.bs_beamwidth_deg,
        )
    if users is None:
        users = synthesize_users(spec)
    mobiles: List[Mobile] = []
    protocols: List[object] = []
    for user in users:
        trajectory = SCENARIOS.get(user.scenario).make_trajectory(
            rng=np.random.default_rng(user.seed), start_x=user.start_x
        )
        if user.start_offset_s > 0.0:
            trajectory = TimeShifted(trajectory, user.start_offset_s)
        mobile = deployment.add_mobile(
            Mobile(user.user_id, trajectory, make_codebook(user.codebook))
        )
        mobiles.append(mobile)
    # Protocols attach after the whole population exists: a protocol
    # constructor may inspect deployment topology.
    for index, (user, mobile) in enumerate(zip(users, mobiles)):
        protocols.append(
            make_protocol(
                user.protocol,
                deployment,
                mobile,
                user.serving_cell,
                build_config(user.overrides),
            )
        )
        if progress is not None:
            progress.on_build(index + 1, len(users))
    return FleetRun(
        spec=spec,
        deployment=deployment,
        users=users,
        mobiles=mobiles,
        protocols=protocols,
    )


def _advance_run(run: FleetRun, progress: Optional[FleetProgress]) -> None:
    """Advance the deployment by the spec duration, reporting progress.

    Without a reporter this is one ``deployment.run`` call.  With one,
    the same duration is covered in :data:`PROGRESS_SLICES` absolute
    targets — ``run_until`` leaves the clock exactly on each target, so
    every event fires at the same time either way — with an early break
    when a callback stopped the simulator (matching the single-call
    behaviour of leaving the remaining time unadvanced).
    """
    duration_s = run.spec.duration_s
    if progress is None:
        run.deployment.run(duration_s)
        return
    sim = run.deployment.sim
    for slice_index in range(1, PROGRESS_SLICES + 1):
        if slice_index == PROGRESS_SLICES:
            target = duration_s
        else:
            target = duration_s * slice_index / PROGRESS_SLICES
        run.deployment.run(max(0.0, target - sim.now))
        progress.on_run(sim.now, duration_s)
        if sim.stop_requested:
            break


def run_built_fleet(
    run: FleetRun, progress: Optional[FleetProgress] = None
) -> FleetTrialResult:
    """Run an already-built fleet to completion and aggregate its metrics.

    Split from :func:`run_fleet_trial` so callers that need the live
    deployment afterwards (``repro obs export`` reads its trace and the
    ambient telemetry) can build, run, and then inspect.
    """
    spec = run.spec
    telemetry = _telemetry.current()
    started: List = []
    started_wall = wall_clock()
    if progress is not None:
        progress.bind_events(run.deployment.sim)
        progress.on_start(len(run.users), spec.duration_s)
    try:
        with telemetry.span("fleet.run"):
            for protocol in run.protocols:
                protocol.start()
                started.append(protocol)
            _advance_run(run, progress)
    finally:
        # Mirror the Session contract: every protocol that started is
        # stopped even when a later start() or the run itself raises.
        for protocol in started:
            protocol.stop()
        run.deployment.stop()
    with telemetry.span("fleet.aggregate"):
        results = [
            user_result(user, mobile, protocol, spec.duration_s)
            for user, mobile, protocol in zip(
                run.users, run.mobiles, run.protocols
            )
        ]
        trial = FleetTrialResult(
            fleet=spec.to_dict(),
            fleet_hash=spec.fleet_hash,
            users=results,
            aggregates=aggregate_users(results, spec.duration_s),
        )
    elapsed = wall_clock() - started_wall
    if progress is not None:
        progress.on_finish(len(run.users), elapsed)
    _log.info("fleet %r: %d users ran %gs simulated in %.1fs wall",
              spec.name, len(run.users), spec.duration_s, elapsed)
    return trial


def run_fleet_trial(
    spec: FleetSpec, progress: Optional[FleetProgress] = None
) -> FleetTrialResult:
    """Run one fleet to completion and aggregate its population metrics."""
    telemetry = _telemetry.current()
    with telemetry.span("fleet.build"):
        run = build_fleet(spec, progress)
    return run_built_fleet(run, progress)


# --------------------------------------------------------------- artifacts
def write_fleet_artifact(result: FleetTrialResult, path: PathLike) -> Path:
    """Write a fleet result as canonical JSON (sorted keys, atomic).

    Canonical encoding is what makes the determinism contract testable
    at the byte level: same spec -> same bytes, across shard counts,
    worker counts and processes.
    """
    target = Path(path)
    if target.parent and not target.parent.exists():
        target.parent.mkdir(parents=True, exist_ok=True)
    text = canonical_json(result.to_dict())
    tmp = target.with_name(target.name + ".tmp")
    tmp.write_text(text + "\n", encoding="utf-8")
    tmp.replace(target)
    return target


def load_fleet_artifact(path: PathLike) -> FleetTrialResult:
    """Read a fleet artifact written by :func:`write_fleet_artifact`."""
    record = json.loads(Path(path).read_text(encoding="utf-8"))
    return FleetTrialResult.from_dict(record)


# ----------------------------------------------------------- sharded fleets
#: Shard artifact schema version.
SHARD_FORMAT = 1

#: Above this population, sharded runs default to streaming aggregation
#: (``stream=None``): per-user results are folded into reservoirs and
#: dropped, keeping shard artifacts and merge memory flat in N.  At or
#: below it, runs retain per-user results, and the merged artifact is
#: byte-identical to the unsharded run — that regime is where the
#: equivalence suite pins correctness.
STREAM_THRESHOLD = 10_000

#: Sharded output layout (see :mod:`repro.campaign.store`): shard
#: artifacts under ``shards/``, the merged result as ``fleet.json``.
SHARD_DIR_NAME = "shards"
MERGED_NAME = "fleet.json"
MANIFEST_KIND = "fleet-shards"


def run_shard(
    shard: FleetShard,
    stream: bool = False,
    capacity: Optional[int] = None,
    progress: Optional[FleetProgress] = None,
) -> dict:
    """Run one shard of a partitioned fleet; returns its JSON-safe payload.

    Synthesizes only this shard's users (keyed synthesis makes that
    O(shard size)), builds the deployment (no trace), runs it, and
    folds each user into a :class:`~repro.fleet.metrics.FleetAccumulator`.
    With ``stream=True`` the per-user dicts are dropped as they are
    folded (``capacity`` bounds the quantile reservoirs); otherwise they
    are retained in the payload and the accumulator stays exact.
    """
    spec = shard.spec
    telemetry = _telemetry.current()
    with telemetry.span("fleet.build"):
        run = build_fleet(spec, progress=progress, users=shard.synthesize())
    started: List = []
    if progress is not None:
        # Monitor heartbeats report cumulative engine events; the
        # counter is read-only diagnostics, never simulation input.
        progress.bind_events(run.deployment.sim)
        progress.on_start(len(run.users), spec.duration_s)
    try:
        with telemetry.span("fleet.run"):
            for protocol in run.protocols:
                protocol.start()
                started.append(protocol)
            _advance_run(run, progress)
    finally:
        for protocol in started:
            protocol.stop()
        run.deployment.stop()
    with telemetry.span("fleet.aggregate"):
        accumulator = FleetAccumulator(
            spec.duration_s, capacity=capacity if stream else None
        )
        retained: Optional[List[dict]] = None if stream else []
        for user, mobile, protocol in zip(
            run.users, run.mobiles, run.protocols
        ):
            result = user_result(user, mobile, protocol, spec.duration_s)
            accumulator.add_user(result)
            if retained is not None:
                retained.append(result.to_dict())
    return {
        "format": SHARD_FORMAT,
        "shard": shard.to_dict(),
        "shard_hash": shard.shard_hash,
        "users": retained,
        "accumulator": accumulator.to_dict(),
    }


def _run_shard_task(task: dict) -> dict:
    """Worker body of one shard task: progress over the pool sink, then
    :func:`run_shard` (looked up at call time, so tests can patch it)."""
    shard = FleetShard.from_dict(task["shard"])
    sink = progress_sink()
    progress = (
        QueueShardProgress(sink, shard.shard_index, heartbeat_s=task["heartbeat_s"])
        if sink is not None
        else None
    )
    return run_shard(
        shard, stream=task["stream"], capacity=task["capacity"], progress=progress
    )


def _shard_store(root: PathLike) -> TaskStore:
    """The task store of a sharded run: ``<root>/shards/<shard_hash>.json``."""
    return TaskStore(root, SHARD_DIR_NAME, ("shard_hash",), kind=MANIFEST_KIND)


@dataclass
class ShardedFleetResult:
    """Outcome of one :func:`run_fleet_sharded` invocation."""

    spec: FleetSpec
    n_shards: int
    stream: bool
    #: The merged fleet result (set once all shards completed).
    merged: Optional[FleetTrialResult] = None
    executed: int = 0
    skipped: int = 0
    out_dir: Optional[Path] = None
    #: Per-shard wall-clock telemetry summaries keyed by shard hash
    #: (``--telemetry`` runs only); kept out of artifacts.
    telemetry: Dict[str, dict] = field(default_factory=dict)
    #: Per-shard worker stats keyed by shard hash (``max_rss_kb`` etc.);
    #: advisory, for benchmarking only.
    shard_stats: Dict[str, dict] = field(default_factory=dict)

    def merged_telemetry(self) -> Optional[dict]:
        """All per-shard summaries folded into one, or ``None`` if none."""
        from repro.obs.report import merge_summaries

        if not self.telemetry:
            return None
        return merge_summaries(
            self.telemetry[shard_hash] for shard_hash in sorted(self.telemetry)
        )


def _merge_shard_payloads(
    spec: FleetSpec,
    shards: Sequence[FleetShard],
    payloads: Mapping[str, dict],
) -> FleetTrialResult:
    """Fold per-shard payloads into one fleet result, in shard order.

    The merged aggregates are multiset-determined: exact accumulators
    merge into the same sorted value multisets the unsharded run sees,
    so the retained-mode merged artifact is byte-identical to the
    unsharded one.  Retained users are re-sorted by user index because
    shard membership interleaves index order.
    """
    accumulator: Optional[FleetAccumulator] = None
    users: Optional[List[FleetUserResult]] = []
    for shard in shards:
        payload = payloads[shard.shard_hash]
        part = FleetAccumulator.from_dict(payload["accumulator"])
        if accumulator is None:
            accumulator = part
        else:
            accumulator.merge(part)
        if users is not None:
            if payload["users"] is None:
                users = None
            else:
                users.extend(
                    FleetUserResult.from_dict(record)
                    for record in payload["users"]
                )
    if accumulator is None:  # pragma: no cover - partition_fleet forbids K=0
        raise FleetError("cannot merge an empty shard set")
    if users is not None:
        users.sort(key=lambda user: int(user.user_id[2:]))
    return FleetTrialResult(
        fleet=spec.to_dict(),
        fleet_hash=spec.fleet_hash,
        users=users,
        aggregates=accumulator.aggregates(),
    )


def run_fleet_sharded(
    spec: FleetSpec,
    n_shards: int,
    out_dir: Optional[PathLike] = None,
    workers: int = 1,
    resume: bool = True,
    progress: Optional[FleetProgress] = None,
    telemetry: bool = False,
    stream: Optional[bool] = None,
    capacity: Optional[int] = None,
    mp_context: Optional[str] = None,
    monitor: bool = False,
) -> ShardedFleetResult:
    """Partition a fleet into shards and run them on the campaign pool.

    Users are assigned to shards by their content-hash-derived seed
    (order-independent), each shard synthesizes exactly its own users,
    and shards execute like campaign cells: on the shared worker pool,
    one artifact per shard named by the shard's content hash, manifest
    + resume semantics, failures collected and raised at the end.  The
    driver merges completed shards (in shard-index order) into the same
    :class:`FleetTrialResult` the unsharded runner produces — and in
    retained mode (``stream=False``) the merged artifact is
    byte-identical to the unsharded one.

    Parameters mirror :func:`repro.campaign.runner.run_campaign`, plus:

    ``stream``
        ``True`` drops per-user results in favour of streaming
        reservoirs (memory flat in N); ``False`` retains them; ``None``
        (default) streams when ``spec.n_users > STREAM_THRESHOLD``.
    ``capacity``
        Per-metric quantile reservoir capacity for streaming runs
        (default :data:`~repro.analysis.stats.QuantileReservoir.DEFAULT_CAPACITY`).
    ``monitor``
        Enable live monitoring: workers post throttled heartbeats
        (events/s, RSS/CPU) over the progress pipe and the driver
        flags shards silent past the stall threshold, both surfaced
        through ``progress`` hooks.  Thresholds come from the declared
        ``REPRO_HEARTBEAT_S`` / ``REPRO_STALL_S`` switches.  Purely
        observational — artifacts are byte-identical either way.
    """
    if workers < 1:
        raise FleetError(f"workers must be >= 1, got {workers!r}")
    shards = partition_fleet(spec, n_shards)  # validates n_shards
    if stream is None:
        stream = spec.n_users > STREAM_THRESHOLD
    if stream and capacity is None:
        capacity = QuantileReservoir.DEFAULT_CAPACITY
    if not stream:
        capacity = None
    by_hash = {shard.shard_hash: shard for shard in shards}

    store: Optional[TaskStore] = None
    if out_dir is not None:
        store = _shard_store(out_dir)
        store.initialize(
            {
                "format": STORE_FORMAT,
                "kind": MANIFEST_KIND,
                "name": spec.name,
                "fleet": spec.to_dict(),
                "fleet_hash": spec.fleet_hash,
                "n_shards": n_shards,
                "stream": stream,
                "capacity": capacity,
                "shards": [
                    {"shard_index": s.shard_index, "shard_hash": s.shard_hash}
                    for s in shards
                ],
            },
            ("fleet_hash", "n_shards", "stream", "capacity"),
        )

    reporter = progress if progress is not None else FleetProgress()
    config = MonitorConfig.from_switches() if monitor else None
    stall = StallDetector(config.stall_s) if monitor else None
    aggregator = ShardProgressAggregator(
        reporter, spec.n_users, spec.duration_s, stall=stall
    )

    def on_done(shard_hash: str, ok: bool, elapsed: float) -> None:
        if ok:
            aggregator.shard_finished(by_hash[shard_hash].shard_index)
            reporter.on_shard_done(len(run.payloads), n_shards, elapsed)

    run = TaskRun(store, on_done)
    reporter.on_start(spec.n_users, spec.duration_s)
    started_wall = wall_clock()
    done_hashes = run.resume(by_hash, telemetry) if resume else set()
    _log.info(
        "fleet %r: %d users in %d shards (%d already done), workers=%d, "
        "stream=%s",
        spec.name, spec.n_users, n_shards, len(done_hashes), workers, stream,
    )
    if done_hashes:
        reporter.on_shard_done(len(done_hashes), n_shards, 0.0)

    pending = [s for s in shards if s.shard_hash not in done_hashes]
    if stall is not None:
        for shard in pending:
            stall.watch(shard.shard_index)
    run.execute(
        [
            Task(
                shard.shard_hash,
                _run_shard_task,
                {
                    "shard": shard.to_dict(),
                    "stream": stream,
                    "capacity": capacity,
                    "heartbeat_s": config.heartbeat_s if monitor else None,
                },
                telemetry,
            )
            for shard in pending
        ],
        workers,
        mp_context=mp_context,
        progress_handler=(
            aggregator.handle if (progress is not None or monitor) else None
        ),
        tick=aggregator.tick if monitor else None,
    )
    run.raise_failures(
        FleetError,
        "fleet shards",
        lambda shard_hash: f"shard {by_hash[shard_hash].shard_index} ({shard_hash})",
    )

    merged = _merge_shard_payloads(spec, shards, run.payloads)
    if store is not None:
        write_fleet_artifact(merged, store.root / MERGED_NAME)
    reporter.on_finish(spec.n_users, wall_clock() - started_wall)
    return ShardedFleetResult(
        spec=spec,
        n_shards=n_shards,
        stream=stream,
        merged=merged,
        executed=run.executed,
        skipped=len(done_hashes),
        out_dir=store.root if store is not None else None,
        telemetry=run.telemetry,
        shard_stats=run.stats,
    )


def load_sharded_fleet(out_dir: PathLike) -> FleetTrialResult:
    """Load (and merge, if needed) a sharded fleet output directory.

    Prefers the merged ``fleet.json`` the driver wrote on completion;
    falls back to merging the shard artifacts, and raises
    :class:`~repro.campaign.store.StoreError` when shards are missing —
    an incomplete run should be resumed, not summarised.
    """
    store = _shard_store(out_dir)
    record = store.load_manifest_record()
    if record is None:
        raise StoreError(f"{out_dir}: no sharded-fleet manifest found")
    merged_path = store.root / MERGED_NAME
    if merged_path.exists():
        return load_fleet_artifact(merged_path)
    spec = FleetSpec.from_dict(record["fleet"])
    shards = partition_fleet(spec, int(record["n_shards"]))
    done = store.completed()
    missing = [s for s in shards if s.shard_hash not in done]
    if missing:
        raise StoreError(
            f"{out_dir}: incomplete sharded run "
            f"({len(missing)}/{len(shards)} shards missing); re-run "
            f"`repro fleet run --shards {len(shards)}` against this "
            "directory to finish it"
        )
    payloads = {s.shard_hash: store.load(s.shard_hash) for s in shards}
    return _merge_shard_payloads(spec, shards, payloads)
