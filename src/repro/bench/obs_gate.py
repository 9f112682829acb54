"""Disabled-telemetry overhead gate (``repro obs gate``).

The telemetry hooks added by :mod:`repro.obs` sit on the hottest loops
in the codebase — the engine's event dispatch and the link engine's
burst evaluation — so the instrumentation itself must be provably free
when telemetry is off (the default).  The gate re-runs the committed
baseline's burst-heavy macro workload with telemetry disabled and fails
when the new median exceeds the baseline median by more than
``tolerance`` (0.02 = +2%, the acceptance criterion).

The workload is reconstructed from the baseline record's **own
``meta``** (SSB density, duration), not from the current suite
defaults: a quick-mode baseline gates a quick-mode workload, and the
comparison is never confounded by a workload-size change.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from pathlib import Path

from repro.bench.harness import BenchError, load_bench_json, time_fn
from repro.bench.suites import _burst_heavy_session, _SweepListener
from repro.obs import telemetry as _telemetry

PathLike = Union[str, Path]

#: Baseline case the gate compares against: the PHY suite's burst-heavy
#: macro (the name keeps its historical ``.vectorized`` suffix so
#: committed baselines stay usable).
GATE_CASE = "fig2a.burst_heavy.vectorized"

#: Acceptance criterion: disabled telemetry may cost at most +2%.
DEFAULT_TOLERANCE = 0.02


def run_overhead_gate(
    baseline_path: PathLike,
    tolerance: float = DEFAULT_TOLERANCE,
    repeats: Optional[int] = None,
    warmup: Optional[int] = None,
) -> Dict[str, object]:
    """Measure disabled-telemetry overhead against a committed baseline.

    Returns a record with ``passed``, the two medians and their ratio.
    Raises :class:`BenchError` when the baseline is unusable (missing
    file, no :data:`GATE_CASE` record) or ``tolerance`` is negative.
    """
    if tolerance < 0.0:
        raise BenchError(
            f"gate tolerance must be non-negative, got {tolerance!r}"
        )
    baseline = load_bench_json(baseline_path)
    record = next(
        (r for r in baseline["results"] if r["name"] == GATE_CASE), None
    )
    if record is None:
        raise BenchError(
            f"{baseline_path}: no {GATE_CASE!r} case in baseline — "
            "regenerate it with `repro bench --suite phy`"
        )
    meta = dict(record.get("meta", {}))
    duration_s = float(meta.get("duration_s", 6.0))
    ssb_per_burst = int(meta.get("ssb_per_burst", 36))
    beamwidth_deg = 360.0 / ssb_per_burst
    n_repeats = repeats if repeats is not None else int(record.get("repeats", 5))
    n_warmup = warmup if warmup is not None else int(record.get("warmup", 2))

    def run() -> None:
        # Telemetry explicitly disabled: the gate times the hooks'
        # guard-branch cost, not the collection cost.
        with _telemetry.use(_telemetry.DISABLED):
            with _burst_heavy_session(1, beamwidth_deg) as session:
                session.attach_listener(
                    _SweepListener(len(session.mobile.codebook))
                )
                session.run(duration_s)

    result = time_fn(GATE_CASE, run, n_repeats, n_warmup, meta)
    baseline_median = float(record["median_s"])
    if baseline_median <= 0.0:
        raise BenchError(
            f"{baseline_path}: {GATE_CASE!r} baseline median is not positive"
        )
    ratio = result.median_s / baseline_median
    return {
        "case": GATE_CASE,
        "baseline_median_s": baseline_median,
        "current_median_s": result.median_s,
        "ratio": ratio,
        "tolerance": tolerance,
        "passed": ratio <= 1.0 + tolerance,
        "repeats": result.repeats,
        "warmup": result.warmup,
        "samples_s": list(result.samples_s),
        "meta": meta,
    }
