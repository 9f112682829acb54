"""The ``repro bench`` PHY suite: micro + macro burst-evaluation cases.

The micro cases time the vectorized PHY primitives — antenna patterns,
codebook gains and Rician fading each next to the scalar call they
batch — single-link burst evaluation (``burst.measure``) and one
coalesced street tick of every user on every cell (``burst.rows``).
The macro cases run the fig2a cell-edge testbed end to end:

* ``fig2a.search`` — the standard Fig. 2a search trial (bursts stop
  once the beam is found; engine-bound).
* ``fig2a.burst_heavy`` — the burst-heavy variant of the same
  three-cell geometry with FR2-dense 36-SSB station codebooks and a
  mobile that measures every burst of every cell, so the wall clock
  lives in burst evaluation.
* ``dense.c{64,256,1024}`` — the dense-corridor macro: N
  phase-staggered cells and a population spread along the corridor,
  under coalesced scheduling and the spatial cell index.
* ``engine.events.drain`` — raw event-loop throughput over no-op
  events with unique timestamps (``derived.events_per_s``), so a
  scheduler-layer regression is visible even when macros hide it
  behind channel work.

Artifact byte-identity is pinned by the committed goldens under
``tests/data``, not by this suite.
"""

from __future__ import annotations

import contextlib
import math
import platform
import sys
from typing import Dict, List, Optional

import numpy as np

from repro.bench.harness import (
    TimingResult,
    env_override,
    results_payload,
    speedup,
    time_fn,
    usable_cores,
    write_bench_json,
)

#: Artifact schema version.
BENCH_FORMAT = 1

#: Default artifact filename.
BENCH_FILENAME = "BENCH_phy.json"


#: Cell counts of the dense-topology scaling curve.
DENSE_CELL_COUNTS = (64, 256, 1024)


@contextlib.contextmanager
def cell_index(mode: str):
    """Force the spatial cell index on or off for deployments built inside."""
    if mode not in ("on", "off"):
        raise ValueError(f"unknown cell index mode {mode!r}")
    with env_override("REPRO_CELL_INDEX", mode):
        yield


class _SweepListener:
    """Measures every burst of every cell, walking the rx codebook."""

    def __init__(self, n_beams: int) -> None:
        self._n = n_beams
        self._count = 0

    def choose_rx_beam(self, cell_id: str, now_s: float) -> int:
        self._count += 1
        return self._count % self._n

    def on_measurement(self, measurement) -> None:
        pass


def _burst_heavy_session(seed: int, station_beamwidth_deg: float):
    """The fig2a three-cell testbed with a configurable SSB density.

    Built through the public :class:`repro.api.Session` facade — the
    same path every experiment uses — with the station codebook density
    raised via ``TrialSpec.bs_beamwidth_deg``.
    """
    from repro.api import Session, TrialSpec

    return Session(
        TrialSpec(
            scenario="walk",
            codebook="narrow",
            seed=seed,
            bs_beamwidth_deg=station_beamwidth_deg,
        )
    )


# ------------------------------------------------------------------- cases
def _bench_antenna(results: List[TimingResult], repeats: int, warmup: int) -> None:
    from repro.phy.antenna import GaussianBeamPattern

    pattern = GaussianBeamPattern(math.radians(20.0))
    offsets = np.linspace(-2.0 * math.pi, 2.0 * math.pi, 4096)
    offsets_list = [float(o) for o in offsets]
    meta = {"n_offsets": len(offsets_list), "pattern": "gaussian-20deg"}
    results.append(
        time_fn(
            "antenna.gain.scalar",
            lambda: [pattern.gain_dbi(o) for o in offsets_list],
            repeats,
            warmup,
            meta,
        )
    )
    results.append(
        time_fn(
            "antenna.gain.vectorized",
            lambda: pattern.gain_dbi_array(offsets),
            repeats,
            warmup,
            meta,
        )
    )


def _bench_codebook(results: List[TimingResult], repeats: int, warmup: int) -> None:
    from repro.phy.codebook import Codebook

    # 64 beams: the FR2 max_ssb_per_burst cap, where batching matters most.
    codebook = Codebook.uniform_azimuth(360.0 / 64.0)
    azimuths = [0.001 * k for k in range(500)]
    meta = {"n_beams": len(codebook), "n_azimuths": len(azimuths)}
    results.append(
        time_fn(
            "codebook.gains.scalar",
            lambda: [
                [codebook.gain_dbi(i, az) for i in range(len(codebook))]
                for az in azimuths
            ],
            repeats,
            warmup,
            meta,
        )
    )
    results.append(
        time_fn(
            "codebook.gains.vectorized",
            lambda: [codebook.gains_dbi(az) for az in azimuths],
            repeats,
            warmup,
            meta,
        )
    )


def _bench_fading(results: List[TimingResult], repeats: int, warmup: int) -> None:
    from repro.phy.fading import RicianFading

    n_draws = 10_000
    meta = {"n_draws": n_draws, "k_factor_db": 10.0}

    def scalar() -> None:
        fading = RicianFading(10.0, np.random.default_rng(1))
        for _ in range(n_draws):
            fading.sample_db()

    def vectorized() -> None:
        fading = RicianFading(10.0, np.random.default_rng(1))
        fading.sample_db_array(n_draws)

    results.append(time_fn("fading.rician.scalar", scalar, repeats, warmup, meta))
    results.append(
        time_fn("fading.rician.vectorized", vectorized, repeats, warmup, meta)
    )


def _bench_burst_micro(
    results: List[TimingResult], repeats: int, warmup: int, n_bursts: int
) -> None:
    from repro.api import Session

    def run() -> None:
        with Session(scenario="walk", seed=1) as session:
            mobile = session.mobile
            station = session.deployment.station("cellB")
            links = session.deployment.links
            for k in range(n_bursts):
                t = k * 0.02
                pose = mobile.pose_at(t)
                links.measure_burst(
                    station,
                    mobile.mobile_id,
                    pose,
                    mobile.rx_gain_fn(t, pose),
                    3,
                    t,
                )

    meta = {"n_bursts": n_bursts, "ssb_per_burst": 18}
    results.append(
        time_fn("burst.measure.vectorized", run, repeats, warmup, meta)
    )


def _bench_burst_rows(
    results: List[TimingResult], repeats: int, warmup: int, n_users: int
) -> None:
    """One coalesced street tick through ``measure_burst_multi``.

    Every user is measured by all three street cells in a single call:
    ``3 x n_users`` link rows of 18 SSB each, on warm links (the links
    are created before timing), so the case times the tick-wide link
    pass itself.
    """
    from repro.experiments.scenarios import (
        build_street_grid_deployment,
        make_mobile_codebook,
    )
    from repro.geometry.pose import Pose
    from repro.geometry.vectors import Vec3
    from repro.mobility.base import StaticPose
    from repro.net.mobile import Mobile

    deployment = build_street_grid_deployment(1)
    codebook = make_mobile_codebook("narrow")
    rng = np.random.default_rng(1)
    requests = []
    for i in range(n_users):
        pose = Pose(
            Vec3(float(rng.uniform(-5.0, 45.0)), float(rng.uniform(-3.0, 3.0))),
            float(rng.uniform(-math.pi, math.pi)),
        )
        mobile = Mobile(f"ue{i}", StaticPose(pose), codebook)
        requests.append(
            (mobile.mobile_id, pose, mobile.rx_gain_fn(0.0, pose), i % len(codebook))
        )
    groups = [(station, requests) for station in deployment.stations]
    links = deployment.links
    links.measure_burst_multi(groups, 0.0)

    meta = {
        "cells": len(groups),
        "n_users": n_users,
        "ssb_per_burst": len(deployment.stations[0].schedule.beams_in_burst()),
    }
    results.append(
        time_fn(
            "burst.rows.vectorized",
            lambda: links.measure_burst_multi(groups, 0.0),
            repeats,
            warmup,
            meta,
        )
    )


def _bench_fig2a_search(
    results: List[TimingResult], repeats: int, warmup: int, deadline_s: float
) -> None:
    from repro.experiments.fig2a import run_search_trial

    def run() -> None:
        run_search_trial("narrow", scenario="walk", seed=1, deadline_s=deadline_s)

    meta = {"scenario": "walk", "codebook": "narrow", "deadline_s": deadline_s}
    results.append(
        time_fn("fig2a.search.vectorized", run, repeats, warmup, meta)
    )


def _bench_fig2a_burst_heavy(
    results: List[TimingResult], repeats: int, warmup: int, duration_s: float
) -> None:
    from repro.obs import telemetry as _telemetry

    beamwidth_deg = 10.0  # 36 SSB per burst: dense FR2-style sweep

    def run(telemetry: bool = False) -> None:
        hub = _telemetry.Telemetry() if telemetry else _telemetry.DISABLED
        with _telemetry.use(hub):
            with _burst_heavy_session(1, beamwidth_deg) as session:
                session.attach_listener(
                    _SweepListener(len(session.mobile.codebook))
                )
                session.run(duration_s)

    meta = {
        "scenario": "walk",
        "ssb_per_burst": int(round(360.0 / beamwidth_deg)),
        "duration_s": duration_s,
        "cells": 3,
    }
    # The name is obs gate's GATE_CASE: keep it stable.
    results.append(
        time_fn("fig2a.burst_heavy.vectorized", run, repeats, warmup, meta)
    )
    # Same workload with telemetry *enabled*: derived.telemetry_overhead
    # tracks what span/counter collection costs on the hottest macro.
    results.append(
        time_fn(
            "fig2a.burst_heavy.telemetry",
            lambda: run(telemetry=True),
            repeats,
            warmup,
            {**meta, "telemetry": True},
        )
    )


def _run_dense_corridor(n_cells: int, duration_s: float) -> None:
    """One dense-corridor session: N phase-staggered cells, 4 sweepers.

    The mobiles are spread uniformly along the corridor (the fleet
    spawn model for this topology), so arbitration admits a mix of
    nearby stations (measured) and provably out-of-reach ones (pruned
    by the spatial index when it is on).
    """
    from repro.experiments.scenarios import build_corridor_deployment
    from repro.geometry.pose import Pose
    from repro.geometry.vectors import Vec3
    from repro.mobility.base import StaticPose
    from repro.net.mobile import Mobile
    from repro.phy.codebook import Codebook

    deployment = build_corridor_deployment(11, n_cells=n_cells)
    codebook = Codebook.uniform_azimuth(20.0)
    span = (n_cells - 1) * 50.0
    for i in range(4):
        mobile = Mobile(
            f"ue{i}",
            StaticPose(Pose(Vec3(span * (i + 0.5) / 4.0, 0.0, 1.5), 0.0)),
            codebook,
        )
        mobile.attach_listener(_SweepListener(len(codebook)))
        deployment.add_mobile(mobile)
    deployment.run(duration_s)


def _bench_dense_corridor(
    results: List[TimingResult], repeats: int, warmup: int, duration_s: float
) -> None:
    """Dense-topology macro under the production stack: one event per
    shared SSB tick, multi-station batched measurement, cell index on."""
    for n_cells in DENSE_CELL_COUNTS:
        meta = {
            "topology": "corridor",
            "n_cells": n_cells,
            "phase_slots": 8,
            "n_users": 4,
            "duration_s": duration_s,
        }
        with cell_index("on"):
            results.append(
                time_fn(
                    f"dense.c{n_cells}.coalesced",
                    lambda n=n_cells: _run_dense_corridor(n, duration_s),
                    repeats,
                    warmup,
                    meta,
                )
            )


def _bench_engine_events(
    results: List[TimingResult], repeats: int, warmup: int, n_events: int
) -> None:
    """Raw event-loop throughput: drain ``n_events`` no-op events.

    Unique timestamps, no coalescing opportunity — this times the heap
    pop / dispatch floor itself, so scheduler-layer regressions show up
    here even when the macro cases hide them behind channel work.
    """
    from repro.sim.engine import Simulator

    def drain() -> None:
        sim = Simulator()

        def noop() -> None:
            pass

        for k in range(n_events):
            sim.schedule((k + 1) * 1e-5, noop, label="noop")
        sim.run_until((n_events + 1) * 1e-5)

    results.append(
        time_fn(
            "engine.events.drain", drain, repeats, warmup, {"n_events": n_events}
        )
    )


# ------------------------------------------------------------------- suite
def run_bench(
    quick: bool = False,
    out_path: Optional[str] = None,
    repeats: Optional[int] = None,
    warmup: Optional[int] = None,
) -> Dict[str, object]:
    """Run the PHY suite; write ``BENCH_phy.json`` when ``out_path`` is set.

    ``quick`` trims repeats and workload sizes for CI smoke runs; the
    artifact schema is identical either way.  ``cpu_count`` records the
    cores this process may run on (its affinity mask where the platform
    has one), not the host's count.
    """
    n_repeats = repeats if repeats is not None else (2 if quick else 5)
    n_warmup = warmup if warmup is not None else (1 if quick else 2)
    results: List[TimingResult] = []
    _bench_antenna(results, n_repeats, n_warmup)
    _bench_codebook(results, n_repeats, n_warmup)
    _bench_fading(results, n_repeats, n_warmup)
    _bench_burst_micro(results, n_repeats, n_warmup, n_bursts=200 if quick else 500)
    _bench_burst_rows(results, n_repeats, n_warmup, n_users=120)
    _bench_fig2a_search(results, n_repeats, n_warmup, deadline_s=1.0)
    _bench_fig2a_burst_heavy(
        results, n_repeats, n_warmup, duration_s=2.0 if quick else 6.0
    )
    _bench_dense_corridor(
        results, n_repeats, n_warmup, duration_s=0.5 if quick else 2.0
    )
    _bench_engine_events(
        results, n_repeats, n_warmup, n_events=20_000 if quick else 100_000
    )
    by_name = {result.name: result for result in results}
    derived = {
        pair: speedup(by_name[f"{pair}.scalar"], by_name[f"{pair}.vectorized"])
        for pair in ("antenna.gain", "codebook.gains", "fading.rician")
    }
    drain = by_name["engine.events.drain"]
    payload: Dict[str, object] = {
        "format": BENCH_FORMAT,
        "suite": "phy",
        "quick": quick,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "cpu_count": usable_cores(),
        "results": results_payload(results),
        "derived": {
            "speedups": derived,
            # Raw heap-pop/dispatch throughput of the event loop.
            "events_per_s": int(drain.meta["n_events"]) / drain.median_s,
            # Enabled-telemetry slowdown on the burst-heavy macro
            # (1.0 = free); the *disabled* cost is gated separately by
            # `repro obs gate` against the committed baseline.
            "telemetry_overhead": {
                "fig2a.burst_heavy": (
                    by_name["fig2a.burst_heavy.telemetry"].median_s
                    / by_name["fig2a.burst_heavy.vectorized"].median_s
                ),
            },
        },
    }
    if out_path is not None:
        write_bench_json(payload, out_path)
    return payload
