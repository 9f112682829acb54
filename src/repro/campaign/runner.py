"""Task execution for campaigns and sharded fleets: serial or pooled.

Each campaign cell (and each fleet shard) is an independent simulation:
it builds its own deployment from the seed recorded *in the task*, so a
task's result is a pure function of the task content — never of which
worker ran it, in what order, or alongside what else.  That is the
whole determinism story: ``--workers 8`` and ``--workers 1`` produce
byte-identical artifacts.

Campaign cells and fleet shards share one task substrate, all of it in
this module plus :class:`~repro.campaign.store.TaskStore`:

* :func:`run_task` — the worker side of every task: wall-clock timing,
  a fresh per-task telemetry hub, traceback capture;
* :func:`execute_pooled` — the one worker pool (or the in-process
  serial path, the byte-identity reference);
* :class:`TaskRun` — the driver side: resume scan, outcome recording
  (artifact + telemetry sidecar) and the failure report.

Only the driver process writes artifacts; workers ship payloads back
over the pool pipe.  Failed tasks are collected (not written), the rest
of the run completes, and a :class:`CampaignError` (a
:class:`~repro.fleet.runner.FleetError` for shards) summarising the
failures is raised at the end — a subsequent resume retries exactly the
failed/missing tasks.  That includes a task whose worker process died
(``os._exit``, the OOM killer, SIGKILL): it is recorded as failed
instead of hanging the run.

Experiment kinds are registered in :data:`repro.registry.EXPERIMENTS`
(the built-ins by the ``repro.experiments`` modules themselves, plugins
via :func:`repro.registry.register_experiment`); the registry is
queried lazily so ``repro.experiments`` modules can in turn import this
package for their thin one-shot wrappers.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
    Union,
)

from repro.campaign.progress import NullProgress, ProgressReporter
from repro.campaign.spec import CampaignCell, CampaignSpec
from repro.campaign.store import ArtifactStore, TaskStore
from repro.obs import resources as _resources
from repro.obs import telemetry as _telemetry
from repro.obs.telemetry import wall_clock
from repro.obs.log import get_logger
from repro.obs.report import merge_summaries

PathLike = Union[str, Path]

_log = get_logger("campaign")


class CampaignError(RuntimeError):
    """Raised for campaign misuse or failed cells.

    ``failures`` maps cell ID -> full traceback text for cells that
    raised during execution (empty for usage errors).
    """

    def __init__(self, message: str, failures: Optional[Dict[str, str]] = None) -> None:
        super().__init__(message)
        self.failures = dict(failures or {})


# --------------------------------------------------------------- experiments
def execute_cell(cell: CampaignCell) -> dict:
    """Run one cell to completion; returns its JSON-safe payload.

    The experiment kind is resolved through
    :data:`repro.registry.EXPERIMENTS`, so registered plugin kinds
    execute exactly like the built-ins.
    """
    from repro.registry import EXPERIMENTS

    return EXPERIMENTS.get(cell.experiment).run(cell)


def decode_payload(experiment: str, payload: dict):
    """Rebuild the trial dataclass an artifact payload serialised."""
    from repro.registry import EXPERIMENTS

    return EXPERIMENTS.get(experiment).decode(payload)


def _run_cell(record: dict) -> dict:
    return execute_cell(CampaignCell.from_dict(record))


# ------------------------------------------------------------ worker side
class Task(NamedTuple):
    """One unit of pooled work: ``fn(arg)`` returns a JSON-safe payload.

    ``fn`` must be a module-level function (tasks cross the pool pipe).
    The telemetry flag rides in the task, not a process global, because
    spawn-context workers do not inherit the driver's ambient hub.
    """

    task_id: str
    fn: Callable[[object], dict]
    arg: object
    telemetry: bool


def run_task(task: Task) -> tuple:
    """Run one task; ``(task_id, payload, error, elapsed_s, telemetry, stats)``.

    ``error`` is ``None`` on success, else the full traceback text: the
    exception object itself cannot cross the pool pipe reliably, but
    the caller still needs to see *where* a trial crashed.
    ``telemetry`` is the summary of a fresh hub covering exactly this
    task (``None`` unless ``task.telemetry``); ``stats`` is the worker
    process's peak RSS / CPU from :mod:`repro.obs.resources`, advisory
    and for benchmarking only.
    """
    started = wall_clock()
    hub = _telemetry.Telemetry() if task.telemetry else _telemetry.DISABLED
    try:
        with _telemetry.use(hub):
            payload = task.fn(task.arg)
    except Exception:  # collected, reported, retried on resume
        error = traceback.format_exc()
        return task.task_id, None, error, wall_clock() - started, None, None
    summary = hub.summary() if task.telemetry else None
    stats = {"max_rss_kb": _resources.max_rss_kb(), "cpu_s": _resources.cpu_s()}
    return task.task_id, payload, None, wall_clock() - started, summary, stats


# ------------------------------------------------------------- worker pool
def _default_context() -> multiprocessing.context.BaseContext:
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


#: Worker-side progress sink (a queue back to the driver), installed by
#: the pool initializer.  Task functions read it via :func:`progress_sink`
#: — ``None`` means nobody is listening and events should be skipped.
_PROGRESS_SINK = None


def _pool_initializer(sink) -> None:
    global _PROGRESS_SINK
    _PROGRESS_SINK = sink


def progress_sink():
    """The worker's progress sink (``.put(event)``), or ``None``."""
    return _PROGRESS_SINK


def execute_pooled(
    task_fn: Callable,
    tasks: Sequence[Task],
    workers: int,
    record_outcome: Callable,
    mp_context: Optional[str] = None,
    progress_handler: Optional[Callable] = None,
    tick: Optional[Callable[[], None]] = None,
) -> None:
    """Run tasks on the worker pool; every task's outcome is recorded once.

    The one pool used by campaigns *and* fleet shards: ``task_fn`` (in
    practice :func:`run_task`) must be a module-level function returning
    an outcome tuple, which the driver-side ``record_outcome`` receives
    splatted — completion order is scheduling-dependent, so outcomes
    must be order-independent (both callers key them by content hash).
    ``workers <= 1`` (or a single task) runs serially in-process — the
    reference path for the byte-identity guarantee.

    Worker death: when a worker process dies mid-task (``os._exit``,
    the OOM killer, SIGKILL) the executor marks the pool broken and
    every task that had not finished raises ``BrokenProcessPool``.
    Each such task is recorded as a failure,
    ``record_outcome(task.task_id, None, traceback_text, 0.0, None,
    None)``, exactly like a task that raised — the call returns instead
    of hanging, and tasks that completed before the death keep their
    outcomes.

    ``progress_handler`` receives worker-originated progress events on
    the driver, best-effort and unordered across workers.  Workers post
    them via :func:`progress_sink`; on the serial path the sink calls
    the handler directly.  Progress can never influence results — it
    only exists between a task starting and its outcome being recorded.

    ``tick`` is a driver-side periodic callback (the fleet monitor's
    stall detector polls from it): invoked every 50 ms while tasks run
    on the pool path, and between tasks on the serial path.  Like
    progress, it can observe but never influence results.
    """
    global _PROGRESS_SINK
    if workers <= 1 or len(tasks) == 1:
        previous = _PROGRESS_SINK
        # Serial path: the sink delivers straight to the driver handler.
        _PROGRESS_SINK = (
            SimpleNamespace(put=progress_handler) if progress_handler else None
        )
        try:
            for task in tasks:
                record_outcome(*task_fn(task))
                if tick is not None:
                    tick()
        finally:
            _PROGRESS_SINK = previous
        return

    ctx = (
        multiprocessing.get_context(mp_context)
        if mp_context
        else _default_context()
    )
    sink = ctx.Queue() if progress_handler is not None else None

    def drain() -> None:
        while sink is not None:
            try:
                event = sink.get_nowait()
            except queue_module.Empty:
                return
            progress_handler(event)

    with ProcessPoolExecutor(
        max_workers=min(workers, len(tasks)),
        mp_context=ctx,
        initializer=_pool_initializer,
        initargs=(sink,),
    ) as pool:
        futures = {pool.submit(task_fn, task): task for task in tasks}
        pending = set(futures)
        while pending:
            done, pending = wait(
                pending, timeout=0.05, return_when=FIRST_COMPLETED
            )
            drain()
            if tick is not None:
                tick()
            for future in done:
                try:
                    outcome = future.result()
                except Exception:  # worker died: BrokenProcessPool
                    outcome = (
                        futures[future].task_id,
                        None,
                        traceback.format_exc(),
                        0.0,
                        None,
                        None,
                    )
                record_outcome(*outcome)
    drain()


# ------------------------------------------------------------ driver side
class TaskRun:
    """Driver-side bookkeeping of one campaign or sharded-fleet run.

    The steps both drivers share: :meth:`resume` (load what is already
    on disk), :meth:`execute` (run the rest through
    :func:`execute_pooled`, with :meth:`record` as its
    ``record_outcome``) and :meth:`raise_failures`.  ``write(task_id,
    payload)`` persists one payload (default ``store.write``); it and
    the telemetry sidecars are skipped when ``store`` is ``None``.
    ``on_done(task_id, ok, elapsed_s)`` runs after each recorded task.
    """

    def __init__(
        self,
        store: Optional[TaskStore],
        on_done: Callable[[str, bool, float], None],
        write: Optional[Callable[[str, dict], object]] = None,
    ) -> None:
        self.store = store
        self._on_done = on_done
        self._write = write
        self.payloads: Dict[str, dict] = {}
        self.failures: Dict[str, str] = {}
        self.telemetry: Dict[str, dict] = {}
        self.stats: Dict[str, dict] = {}
        self.executed = 0

    def resume(
        self,
        task_ids: Iterable[str],
        telemetry: bool,
        load: Optional[Callable[[str], dict]] = None,
    ) -> Set[str]:
        """Load the payloads of ``task_ids`` complete on disk; their IDs.

        ``load(task_id)`` reads one payload (default ``store.load``).
        With ``telemetry``, a skipped task keeps the sidecar its
        original run left behind (if any) so the merged view still
        covers it.
        """
        if self.store is None:
            return set()
        done = self.store.completed() & set(task_ids)
        for task_id in done:
            self.payloads[task_id] = (load or self.store.load)(task_id)
            summary = self.store.load_telemetry(task_id) if telemetry else None
            if summary is not None:
                self.telemetry[task_id] = summary
        return done

    def execute(self, tasks: Sequence[Task], workers: int, **pool_options) -> None:
        """Run ``tasks`` (if any) through :func:`execute_pooled`."""
        if tasks:
            execute_pooled(run_task, tasks, workers, self.record, **pool_options)

    def record(
        self,
        task_id: str,
        payload: Optional[dict],
        error: Optional[str],
        elapsed: float,
        summary: Optional[dict],
        stats: Optional[dict],
    ) -> None:
        """Keep one outcome; persist its payload and telemetry sidecar."""
        if error is not None:
            self.failures[task_id] = error
        else:
            self.payloads[task_id] = payload
            if self.store is not None:
                (self._write or self.store.write)(task_id, payload)
            if summary is not None:
                self.telemetry[task_id] = summary
                if self.store is not None:
                    self.store.write_telemetry(task_id, summary)
            if stats is not None:
                self.stats[task_id] = stats
        self.executed += 1
        self._on_done(task_id, error is None, elapsed)

    def raise_failures(
        self,
        error_type: Type[CampaignError],
        what: str,
        label: Callable[[str], str],
    ) -> None:
        """Raise ``error_type`` over every failed task, if any failed.

        Headline: the terminal exception line per task.  Full
        tracebacks follow in the message and ride along on the
        exception's ``failures`` attribute.
        """
        if not self.failures:
            return
        preview = "; ".join(
            f"{label(task_id)}: {message.strip().splitlines()[-1]}"
            for task_id, message in list(self.failures.items())[:3]
        )
        tracebacks = "\n".join(
            f"--- {label(task_id)} ---\n{message}"
            for task_id, message in self.failures.items()
        )
        raise error_type(
            f"{len(self.failures)}/{self.executed} {what} failed "
            f"({preview})\n{tracebacks}",
            self.failures,
        )


# ---------------------------------------------------------- campaign driver
@dataclass
class CampaignResult:
    """Outcome of one :func:`run_campaign` invocation."""

    spec: CampaignSpec
    payloads: Dict[str, dict] = field(default_factory=dict)
    executed: int = 0
    skipped: int = 0
    failures: Dict[str, str] = field(default_factory=dict)
    out_dir: Optional[Path] = None
    #: Per-cell wall-clock telemetry summaries (``--telemetry`` runs
    #: only).  Kept out of ``payloads`` so artifacts stay deterministic.
    telemetry: Dict[str, dict] = field(default_factory=dict)

    def merged_telemetry(self) -> Optional[dict]:
        """All per-cell summaries folded into one, or ``None`` if none."""
        if not self.telemetry:
            return None
        return merge_summaries(
            self.telemetry[cell_id] for cell_id in sorted(self.telemetry)
        )

    def results_in_order(self) -> Iterator[Tuple[CampaignCell, dict]]:
        """Completed ``(cell, payload)`` pairs in grid order."""
        for cell in self.spec.iter_cells():
            payload = self.payloads.get(cell.cell_id)
            if payload is not None:
                yield cell, payload


def run_campaign(
    spec: CampaignSpec,
    out_dir: Optional[PathLike] = None,
    workers: int = 1,
    resume: bool = True,
    progress: Optional[ProgressReporter] = None,
    mp_context: Optional[str] = None,
    telemetry: bool = False,
) -> CampaignResult:
    """Execute a campaign, optionally persisting and resuming artifacts.

    Parameters
    ----------
    spec:
        The campaign grid to run.
    out_dir:
        Artifact directory.  ``None`` keeps results in memory only (the
        one-shot experiment wrappers use this mode).
    workers:
        Worker processes.  ``<= 1`` runs serially in-process, which is
        also the reference for the bit-identical-artifacts guarantee.
    resume:
        Skip cells whose artifact already exists in ``out_dir``.
    progress:
        Reporter for start/cell/finish hooks; default silent.
    mp_context:
        Multiprocessing start method override (``fork`` / ``spawn`` /
        ``forkserver``); default prefers ``fork`` where available.
    telemetry:
        Collect per-cell wall-clock telemetry.  Summaries land on
        :attr:`CampaignResult.telemetry` and (with ``out_dir``) as
        sidecars under ``<out>/telemetry/``; cell artifacts are
        byte-identical either way.
    """
    if workers < 1:
        raise CampaignError(f"workers must be >= 1, got {workers!r}")
    reporter = progress if progress is not None else NullProgress()
    cells = spec.expand()
    by_id = {cell.cell_id: cell for cell in cells}

    store: Optional[ArtifactStore] = None
    if out_dir is not None:
        store = ArtifactStore(out_dir)
        store.initialize(spec)
    run = TaskRun(
        store,
        on_done=lambda cell_id, ok, elapsed: reporter.on_cell_done(
            by_id[cell_id], ok, elapsed
        ),
        write=lambda cell_id, payload: store.write_cell(by_id[cell_id], payload),
    )
    done_ids = (
        run.resume(by_id, telemetry, load=lambda cell_id: store.load_cell(cell_id)[1])
        if resume
        else set()
    )
    reporter.on_start(len(cells), len(done_ids))
    started = wall_clock()
    _log.info(
        "campaign %r: %d cells (%d already done), workers=%d, telemetry=%s",
        spec.name, len(cells), len(done_ids), workers, telemetry,
    )
    run.execute(
        [
            Task(cell.cell_id, _run_cell, cell.to_dict(), telemetry)
            for cell in cells
            if cell.cell_id not in done_ids
        ],
        workers,
        mp_context=mp_context,
    )
    reporter.on_finish(run.executed, len(run.failures), wall_clock() - started)
    run.raise_failures(CampaignError, "campaign cells", lambda cell_id: f"cell {cell_id}")
    return CampaignResult(
        spec=spec,
        payloads=run.payloads,
        executed=run.executed,
        skipped=len(done_ids),
        out_dir=store.root if store is not None else None,
        telemetry=run.telemetry,
    )


def resume_campaign(
    out_dir: PathLike,
    workers: int = 1,
    progress: Optional[ProgressReporter] = None,
    mp_context: Optional[str] = None,
    telemetry: bool = False,
) -> CampaignResult:
    """Resume the campaign recorded in ``out_dir``'s manifest."""
    spec = ArtifactStore(out_dir).load_spec()
    return run_campaign(
        spec,
        out_dir=out_dir,
        workers=workers,
        resume=True,
        progress=progress,
        mp_context=mp_context,
        telemetry=telemetry,
    )
