"""Timing harness: warmup + repeats, median/IQR, canonical JSON output.

Wall-clock timing in CI and on laptops is noisy; the harness therefore
reports order statistics (median and interquartile range) over a fixed
number of repeats rather than a single mean, after warmup runs that
absorb import, allocation and branch-predictor transients.  Raw samples
are preserved in the artifact so trajectories can be re-analyzed later
without re-running.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.util.numerics import quantile


@dataclass(frozen=True)
class TimingResult:
    """Summary of one benchmark case.

    All durations are seconds of wall clock for one execution of the
    case callable.
    """

    name: str
    repeats: int
    warmup: int
    median_s: float
    iqr_s: float
    p25_s: float
    p75_s: float
    min_s: float
    mean_s: float
    samples_s: List[float]
    meta: Dict[str, object] = field(default_factory=dict)


def time_fn(
    name: str,
    fn: Callable[[], object],
    repeats: int = 5,
    warmup: int = 1,
    meta: Optional[Dict[str, object]] = None,
) -> TimingResult:
    """Time ``fn`` with ``warmup`` discarded runs and ``repeats`` samples."""
    if repeats < 1:
        raise ValueError(f"need at least one repeat, got {repeats!r}")
    if warmup < 0:
        raise ValueError(f"warmup must be non-negative, got {warmup!r}")
    for _ in range(warmup):
        fn()
    samples: List[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    ordered = sorted(samples)
    p25 = quantile(ordered, 0.25)
    p75 = quantile(ordered, 0.75)
    return TimingResult(
        name=name,
        repeats=repeats,
        warmup=warmup,
        median_s=quantile(ordered, 0.50),
        iqr_s=p75 - p25,
        p25_s=p25,
        p75_s=p75,
        min_s=ordered[0],
        mean_s=sum(ordered) / len(ordered),
        samples_s=samples,
        meta=dict(meta or {}),
    )


def usable_cores() -> Optional[int]:
    """Cores this process may run on; the host count without affinity."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count()  # pragma: no cover - no affinity API (macOS)


@contextlib.contextmanager
def env_override(name: str, value: str):
    """Temporarily set environment variable ``name`` to ``value``.

    Restores the previous value (or unsets the variable) on exit — the
    one save/set/restore implementation behind scoped switch overrides
    such as ``REPRO_CELL_INDEX=off`` in tests and bench cases.
    """
    previous = os.environ.get(name)
    os.environ[name] = value
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = previous


def speedup(baseline: TimingResult, candidate: TimingResult) -> float:
    """Median-over-median speedup of ``candidate`` versus ``baseline``."""
    if candidate.median_s <= 0.0:
        raise ValueError("candidate median must be positive")
    return baseline.median_s / candidate.median_s


def write_bench_json(
    payload: Dict[str, object], path: Union[str, Path]
) -> Path:
    """Write a bench payload as canonical JSON (atomic, trailing newline)."""
    target = Path(path)
    if target.parent and not target.parent.exists():
        target.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(payload, sort_keys=True, separators=(",", ": "), indent=1)
    tmp = target.with_name(target.name + ".tmp")
    tmp.write_text(text + "\n", encoding="utf-8")
    os.replace(tmp, target)
    return target


def results_payload(results: List[TimingResult]) -> List[Dict[str, object]]:
    """Serializable form of a result list (artifact ``results`` section)."""
    return [asdict(result) for result in results]


# ------------------------------------------------------------------ compare
class BenchError(Exception):
    """Malformed bench artifact or invalid comparison input."""


@dataclass(frozen=True)
class CaseComparison:
    """Median diff of one case against a committed baseline artifact."""

    name: str
    baseline_median_s: float
    current_median_s: float

    @property
    def ratio(self) -> float:
        """current / baseline; > 1 means the case got slower."""
        if self.baseline_median_s <= 0.0:
            return math.inf
        return self.current_median_s / self.baseline_median_s

    def regressed(self, tolerance: float) -> bool:
        """Whether the case slowed beyond ``tolerance`` (0.2 = +20%)."""
        return self.ratio > 1.0 + tolerance


def load_bench_json(path: Union[str, Path]) -> Dict[str, object]:
    """Read a bench artifact written by :func:`write_bench_json`.

    Validates the result records on the way in (:class:`BenchError` on
    a malformed artifact), so a gating run fails before the suite has
    spent minutes benchmarking against an unusable baseline.
    """
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    _case_records(payload, str(path))
    return payload


def _case_records(payload: Dict[str, object], label: str) -> List[Dict[str, object]]:
    """The validated ``results`` records of a bench payload.

    Raises :class:`BenchError` — an operational error, not a traceback —
    when the artifact is not a results payload or a record lacks the
    fields the regression gate consumes.
    """
    results = payload.get("results") if isinstance(payload, dict) else None
    if not isinstance(results, list):
        raise BenchError(f"{label} bench artifact has no 'results' list")
    for record in results:
        if (
            not isinstance(record, dict)
            or "name" not in record
            or "median_s" not in record
        ):
            raise BenchError(
                f"{label} bench artifact has a malformed result record "
                f"(need name/median_s): {record!r}"
            )
    return results


def _match_cases(
    current: Dict[str, object], baseline: Dict[str, object]
) -> Tuple[List[CaseComparison], List[str]]:
    """One scan matching current cases against the baseline.

    Returns ``(comparisons, incomparable)``: cases present in both with
    identical ``meta`` become comparisons; cases present in both whose
    meta differs are incomparable (their names are returned); cases
    present in only one payload are ignored.
    """
    baseline_records = {r["name"]: r for r in _case_records(baseline, "baseline")}
    comparisons: List[CaseComparison] = []
    incomparable: List[str] = []
    for record in _case_records(current, "current"):
        name = record["name"]
        base = baseline_records.get(name)
        if base is None:
            continue
        if base.get("meta") != record.get("meta"):
            incomparable.append(name)
            continue
        comparisons.append(
            CaseComparison(
                name=name,
                baseline_median_s=float(base["median_s"]),
                current_median_s=float(record["median_s"]),
            )
        )
    return comparisons, incomparable


def compare_payloads(
    current: Dict[str, object], baseline: Dict[str, object]
) -> List[CaseComparison]:
    """Median-vs-median comparison of two bench payloads, by case name.

    Only cases present in both artifacts are compared (a new case has no
    baseline; a retired one no current), so growing a suite never breaks
    the regression gate.  Cases whose recorded ``meta`` (workload
    parameters — burst counts, durations, population sizes) differs are
    also skipped: timing a quick-mode run against a full-mode baseline
    would confound workload size with performance and wave real
    regressions through.  :func:`incomparable_cases` names the skipped
    ones so callers can surface them.
    """
    return _match_cases(current, baseline)[0]


def incomparable_cases(
    current: Dict[str, object], baseline: Dict[str, object]
) -> List[str]:
    """Names of cases present in both payloads but with differing meta."""
    return _match_cases(current, baseline)[1]


def regressions(
    comparisons: List[CaseComparison], tolerance: float = 0.20
) -> List[CaseComparison]:
    """The comparisons that slowed beyond ``tolerance``."""
    if tolerance < 0.0:
        raise ValueError(f"tolerance must be non-negative, got {tolerance!r}")
    return [c for c in comparisons if c.regressed(tolerance)]
