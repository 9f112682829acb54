"""The ``repro bench --suite fleet`` suite: users-vs-wall-time scaling.

Runs the same short fleet (walkers spread across the street grid, full
Silent Tracker protocols) at growing population sizes on the production
burst path (``fleet.run.u{N}.batch``), plus a dense-corridor fleet
under coalesced scheduling and the cell index (``fleet.dense.c64``).
The artifact (``BENCH_fleet.json``) records the scaling curve; one
determinism check rides along: a sharded run's merged artifact is
byte-compared against the unsharded run (``sharded_identical``).
Whole-artifact byte identity is otherwise pinned by the committed
goldens under ``tests/data``.

Sharded cases (``fleet.sharded.*``) run :func:`~repro.fleet.runner.
run_fleet_sharded` on the campaign worker pool with streaming metric
reservoirs at large N: a 10^4-user worker-scaling sweep, a 10^5-user
point and — in full mode — a 10^6-user point.  Workers use the
``spawn`` start method so their recorded peak RSS (``derived.peak_rss``)
is the shard's own footprint, not a fork-inherited high-water mark;
``derived.worker_scaling`` carries the 10^4-user medians per worker
count next to ``cpu_count`` (the cores this process may run on, from
its affinity mask where the platform has one), and
``derived.oversubscribed_workers`` lists the worker counts above
``cpu_count``, so a single-core CI runner's flat curve reads as what it
is.

Quick mode (CI smoke) trims the big populations and the 64-user point
but keeps case ``meta`` identical to the committed full-mode artifact,
so the ``--compare`` median-regression gate always has comparable
cases.
"""

from __future__ import annotations

import platform
import sys
from typing import Dict, List, Optional

import numpy as np

from repro.bench.harness import (
    TimingResult,
    results_payload,
    time_fn,
    usable_cores,
    write_bench_json,
)

#: Artifact schema version.
BENCH_FORMAT = 1

#: Default artifact filename.
BENCH_FILENAME = "BENCH_fleet.json"

#: Population sizes of the scaling curve; quick mode (CI smoke) drops
#: the 64-user point.
USER_COUNTS = (4, 16, 64)
USER_COUNTS_QUICK = (4, 16)

#: Sharded cases: (n_users, shards, workers, duration_s, repeats).
#: Durations shrink with population so the committed full-mode artifact
#: stays rebuildable in minutes; shard counts grow so per-shard
#: footprints stay in the thousands of users (that flat per-worker
#: footprint is exactly what ``derived.peak_rss`` demonstrates).
SHARDED_CASES = (
    (64, 4, 2, 1.0, None),
    (10_000, 8, 1, 0.25, 1),
    (10_000, 8, 2, 0.25, 1),
    (10_000, 8, 4, 0.25, 1),
    (100_000, 16, 2, 0.1, 1),
    (1_000_000, 256, 2, 0.05, 1),
)
SHARDED_CASES_QUICK = ((64, 4, 2, 1.0, None),)

#: Worker counts of the 10^4-user scaling sweep (derived section).
WORKER_SWEEP_USERS = 10_000


def oversubscribed_workers(worker_counts, cpu_count: int) -> List[int]:
    """The worker counts that exceed ``cpu_count`` usable cores, ascending.

    Their scaling points time processes sharing cores, not parallelism.
    """
    return sorted(int(w) for w in worker_counts if int(w) > cpu_count)


def _bench_spec(n_users: int, duration_s: float):
    """The scaling-curve fleet: walkers spread over the street grid."""
    from repro.fleet import FleetSpec, UserProfile

    return FleetSpec(
        name=f"bench-{n_users}",
        n_users=n_users,
        profiles=(
            UserProfile("walkers", scenario="walk", start_jitter_s=0.25),
        ),
        seed=1,
        duration_s=duration_s,
    )


def _dense_spec(n_users: int, n_cells: int, duration_s: float):
    """The dense-topology fleet: walkers spread along an N-cell corridor."""
    from repro.fleet.experiment import fleet_spec_for_cell

    return fleet_spec_for_cell(
        "uniform",
        scenario="walk",
        seed=1,
        n_users=n_users,
        duration_s=duration_s,
        name=f"bench-dense-{n_cells}",
        topology="corridor",
        n_cells=n_cells,
    )


def _run_fleet(n_users: int, duration_s: float) -> None:
    from repro.fleet import run_fleet_trial

    run_fleet_trial(_bench_spec(n_users, duration_s))


def _bench_scaling(
    results: List[TimingResult],
    repeats: int,
    warmup: int,
    user_counts,
    duration_s: float,
) -> None:
    for n_users in user_counts:
        meta = {"n_users": n_users, "duration_s": duration_s, "cells": 3}
        results.append(
            time_fn(
                f"fleet.run.u{n_users}.batch",
                lambda n=n_users: _run_fleet(n, duration_s),
                repeats,
                warmup,
                meta,
            )
        )


def _bench_dense_fleet(
    results: List[TimingResult],
    repeats: int,
    warmup: int,
    n_users: int,
    n_cells: int,
    duration_s: float,
) -> None:
    """Dense corridor fleet under the coalesced + cell-index stack.

    Kept in quick mode (identical meta) so the CI gate covers the dense
    path.
    """
    from repro.bench.suites import cell_index

    meta = {
        "topology": "corridor",
        "n_cells": n_cells,
        "n_users": n_users,
        "duration_s": duration_s,
    }
    with cell_index("on"):
        results.append(
            time_fn(
                f"fleet.dense.c{n_cells}.coalesced",
                lambda: _run_dense(n_users, n_cells, duration_s),
                repeats,
                warmup,
                meta,
            )
        )


def _run_dense(n_users: int, n_cells: int, duration_s: float) -> None:
    from repro.fleet import run_fleet_trial

    run_fleet_trial(_dense_spec(n_users, n_cells, duration_s))


def _check_sharded_identity(n_users: int, duration_s: float) -> bool:
    """Byte-compare a sharded run's merged artifact with the unsharded run."""
    from repro.campaign.spec import canonical_json
    from repro.fleet import run_fleet_sharded, run_fleet_trial

    spec = _bench_spec(n_users, duration_s)
    unsharded = canonical_json(run_fleet_trial(spec).to_dict())
    sharded = run_fleet_sharded(spec, 3, workers=2, stream=False)
    return canonical_json(sharded.merged.to_dict()) == unsharded


def _run_sharded(
    n_users: int,
    shards: int,
    workers: int,
    duration_s: float,
    stream: Optional[bool],
    rss_kb: Optional[Dict[str, int]] = None,
) -> None:
    """One sharded bench execution; optionally records worker peak RSS.

    RSS figures originate in :func:`repro.obs.resources.max_rss_kb`
    (the one project-wide sampler — the shard workers put its reading
    in ``shard_stats``), so the unit here is KiB on every platform.
    ``spawn`` workers report their own high-water mark (``fork`` would
    inherit the driver's); the serial ``workers=1`` path measures the
    driver process and is excluded from ``rss_kb``.
    """
    from repro.fleet import run_fleet_sharded

    result = run_fleet_sharded(
        _bench_spec(n_users, duration_s),
        shards,
        workers=workers,
        stream=stream,
        mp_context="spawn" if workers > 1 else None,
    )
    if rss_kb is None or workers <= 1:
        return
    observed = [
        stats["max_rss_kb"]
        for stats in result.shard_stats.values()
        if stats.get("max_rss_kb")
    ]
    if observed:
        key = str(n_users)
        rss_kb[key] = max(max(observed), rss_kb.get(key, 0))


def _bench_sharded(
    results: List[TimingResult],
    repeats: int,
    warmup: int,
    cases,
    rss_kb: Dict[str, int],
) -> None:
    for n_users, shards, workers, duration_s, case_repeats in cases:
        stream = True if n_users > 1000 else None
        meta = {
            "n_users": n_users,
            "duration_s": duration_s,
            "cells": 3,
            "shards": shards,
            "workers": workers,
            "stream": bool(stream),
        }
        results.append(
            time_fn(
                f"fleet.sharded.u{n_users}.s{shards}.w{workers}",
                lambda n=n_users, s=shards, w=workers, d=duration_s,
                st=stream: _run_sharded(n, s, w, d, st, rss_kb),
                case_repeats if case_repeats is not None else repeats,
                0 if case_repeats is not None else warmup,
                meta,
            )
        )


def run_fleet_bench(
    quick: bool = False,
    out_path: Optional[str] = None,
    repeats: Optional[int] = None,
    warmup: Optional[int] = None,
) -> Dict[str, object]:
    """Run the fleet suite; write ``BENCH_fleet.json`` when requested.

    The ``derived`` section carries the wall-seconds scaling curve per
    population size (``scaling_median_s``), the sharded worker-scaling
    sweep (``worker_scaling``) with the counts above ``cpu_count``
    (``oversubscribed_workers``), the per-worker peak RSS of the streaming
    sharded runs (``peak_rss``) and the sharded byte-identity check
    (``sharded_identical``).

    Quick and full mode time identical workloads (same ``meta``) for
    the cases quick mode keeps, so a quick run gates cleanly against
    the committed full-mode artifact with ``--compare``.
    """
    n_repeats = repeats if repeats is not None else (2 if quick else 3)
    n_warmup = warmup if warmup is not None else (0 if quick else 1)
    duration_s = 1.0
    user_counts = USER_COUNTS_QUICK if quick else USER_COUNTS
    sharded_cases = SHARDED_CASES_QUICK if quick else SHARDED_CASES
    results: List[TimingResult] = []
    _bench_scaling(results, n_repeats, n_warmup, user_counts, duration_s)
    _bench_dense_fleet(
        results, n_repeats, n_warmup, n_users=16, n_cells=64, duration_s=1.0
    )
    rss_kb: Dict[str, int] = {}
    _bench_sharded(results, n_repeats, n_warmup, sharded_cases, rss_kb)
    by_name = {result.name: result for result in results}
    scaling = {
        str(n_users): by_name[f"fleet.run.u{n_users}.batch"].median_s
        for n_users in user_counts
    }
    worker_scaling: Dict[str, float] = {}
    for n_users, shards, workers, case_duration, _ in sharded_cases:
        if n_users != WORKER_SWEEP_USERS:
            continue
        case = by_name[f"fleet.sharded.u{n_users}.s{shards}.w{workers}"]
        worker_scaling[str(workers)] = case.median_s
    cpu_count = usable_cores()
    payload: Dict[str, object] = {
        "format": BENCH_FORMAT,
        "suite": "fleet",
        "quick": quick,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "cpu_count": cpu_count,
        "results": results_payload(results),
        "derived": {
            "scaling_median_s": scaling,
            "worker_scaling": worker_scaling,
            "oversubscribed_workers": oversubscribed_workers(
                worker_scaling, cpu_count
            ),
            "peak_rss": {"unit": "kb", "by_users": rss_kb},
            "sharded_identical": _check_sharded_identity(
                n_users=8, duration_s=0.5 if quick else 1.0
            ),
        },
    }
    if out_path is not None:
        write_bench_json(payload, out_path)
    return payload
