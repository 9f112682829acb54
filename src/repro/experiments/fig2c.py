"""Fig. 2c: soft-handover completion time under the three mobility models.

Each trial runs the full Silent Tracker protocol — serving maintenance,
silent neighbor tracking, handover trigger, random access — at the cell
edge under one mobility scenario, and measures the **completion time**:
from neighbor-search initiation (edge B) to successful random-access
conclusion (msg4).  The paper's Fig. 2c plots the CDF of this quantity
per scenario; all three concentrate between roughly 0.4 and 1.8 s, with
the fast-dynamics scenarios (rotation, vehicular) carrying heavier
tails from beam re-acquisitions.

A trial reports only its first completed episode, so it ends at the
first SSB-period boundary after that episode is final instead of
simulating the scenario's whole horizon (see :func:`run_tracking_trial`
for why the payload bytes are the same either way).

The module registers the ``tracking`` experiment kind: its campaign
``protocols`` axis is the mobile receive-codebook kind.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.api import Session, TrialSpec
from repro.campaign.spec import CampaignSpec, build_config
from repro.core.config import SilentTrackerConfig
from repro.core.silent_tracker import HandoverTimeline, SilentTracker
from repro.experiments.scenarios import SCENARIO_NAMES
from repro.net.handover import HandoverOutcome, HandoverRecord
from repro.registry import CODEBOOKS, register_experiment

SERVING_CELL = "cellA"


@dataclass(frozen=True)
class TrackingTrialResult:
    """Outcome of one full Silent Tracker trial."""

    scenario: str
    seed: int
    completed: bool
    #: Edge B to msg4 (the Fig. 2c quantity), None if never completed.
    completion_time_s: Optional[float]
    #: Edge C to msg4: how long the tracker held the beam aligned.
    tracking_time_s: Optional[float]
    outcome: Optional[HandoverOutcome]
    beam_switches: int
    reacquisitions: int
    interruption_s: Optional[float]
    rach_attempts: int


def _first_episode(
    protocol: SilentTracker,
) -> Tuple[Optional[HandoverTimeline], Optional[HandoverRecord]]:
    """The reported episode: the first completed timeline and record."""
    timeline = next(
        (t for t in protocol.timelines if t.complete_s is not None), None
    )
    record = next(
        (r for r in protocol.handover_log.records if r.complete_s is not None),
        None,
    )
    return timeline, record


def run_tracking_trial(
    scenario: str,
    seed: int = 1,
    config: Optional[SilentTrackerConfig] = None,
    codebook: str = "narrow",
    duration_s: Optional[float] = None,
) -> TrackingTrialResult:
    """One end-to-end Silent Tracker run; reports the first handover episode.

    The session advances one SSB period at a time and stops at the first
    period boundary after :func:`_first_episode` is final, or at the
    trial horizon if no episode completes.  The result is byte-identical
    to simulating the whole horizon:

    1. Only the tracker's active timeline is ever mutated, and a new one
       is opened only once the previous one is closed, so a completed
       timeline never changes afterwards and no earlier timeline can
       complete later.
    2. Every record field read here is set by the time its
       ``complete_s`` is (RACH completion, then the context switch), and
       the handover log only appends.
    3. Nothing is scheduled between slices, and ``run_until`` fires every
       event at or before a slice's end, so the slices replay the
       single-run event sequence.  The last slice is ``end_s - now`` with
       ``now`` zero or at least ``end_s / 2``, a subtraction that is
       exact, so a trial that never completes still ends exactly on the
       horizon.
    """
    spec = TrialSpec(
        scenario=scenario,
        codebook=codebook,
        protocol="silent-tracker",
        seed=seed,
        duration_s=duration_s,
        serving_cell=SERVING_CELL,
        config=config,
    )
    with Session(spec) as session:
        protocol = session.attach_protocol()
        sim = session.deployment.sim
        period_s = session.deployment.stations[0].frame.ssb_period_s
        end_s = spec.resolved_duration_s
        while True:
            session.run(min(period_s, end_s - sim.now))
            timeline, record = _first_episode(protocol)
            final = timeline is not None and record is not None
            if final or sim.now >= end_s:
                break

    return TrackingTrialResult(
        scenario=scenario,
        seed=seed,
        completed=timeline is not None,
        completion_time_s=timeline.completion_time_s if timeline else None,
        tracking_time_s=timeline.tracking_time_s if timeline else None,
        outcome=timeline.outcome if timeline else None,
        beam_switches=(
            timeline.beam_switches_while_tracking if timeline else 0
        ),
        reacquisitions=timeline.reacquisitions if timeline else 0,
        interruption_s=record.interruption_s if record else None,
        rach_attempts=record.rach_attempts if record else 0,
    )


# ----------------------------------------------------------- experiment kind
def _decode_tracking(payload: dict) -> TrackingTrialResult:
    record = dict(payload)
    outcome = record.get("outcome")
    record["outcome"] = HandoverOutcome(outcome) if outcome else None
    return TrackingTrialResult(**record)


def tracking_headline(trials) -> dict:
    """Handover completion, softness and completion time of one arm.

    ``completed_per_trial`` is completed episodes / trials and
    ``soft_per_completed`` soft episodes / completed ones.
    ``completion_times_s`` holds the completed episodes' Fig. 2c times,
    which the mean and quantiles summarize; beam switches and
    re-acquisitions are averaged per completed episode.  A ratio, mean
    or quantile over completed episodes is ``None`` when none completed,
    so an arm that never completed does not read like one whose
    handovers were all hard.
    """
    from repro.analysis.stats import summarize

    completed = [t for t in trials if t.completed]
    n = len(completed)
    soft = sum(1 for t in completed if t.outcome is HandoverOutcome.SOFT)
    times = tuple(t.completion_time_s for t in completed)
    summary = summarize(times)

    def per_completed(values):
        return sum(values) / n if n else None

    return {
        "trials": len(trials),
        "completed": n,
        "soft": soft,
        "completed_per_trial": n / len(trials),
        "soft_per_completed": soft / n if n else None,
        "mean_completion_s": per_completed(times),
        "p50_completion_s": summary.get("p50"),
        "p90_completion_s": summary.get("p90"),
        "switches_per_completed": per_completed(
            [t.beam_switches for t in completed]
        ),
        "reacquisitions_per_completed": per_completed(
            [t.reacquisitions for t in completed]
        ),
        "completion_times_s": times,
    }


@register_experiment(
    "tracking",
    decode=_decode_tracking,
    headline=tracking_headline,
    columns=(
        ("completion", "completed_per_trial"),
        ("soft", "soft_per_completed"),
        ("p50 (s)", "p50_completion_s"),
        ("p90 (s)", "p90_completion_s"),
    ),
    axis="codebook",
    protocol_axis="codebook",
    protocol_names=CODEBOOKS.names,
    default_protocols=("narrow",),
    description="Fig. 2c full Silent Tracker handover episodes",
    accepts_config=True,
)
def _run_tracking_cell(cell) -> dict:
    result = run_tracking_trial(
        cell.scenario,
        seed=cell.seed,
        config=build_config(cell.overrides),
        codebook=cell.protocol,
        duration_s=cell.params.get("duration_s"),
    )
    payload = dataclasses.asdict(result)
    payload["outcome"] = result.outcome.value if result.outcome else None
    return payload


def fig2c_spec(
    n_trials: int = 40,
    base_seed: int = 200,
    name: str = "fig2c",
) -> CampaignSpec:
    """The Fig. 2c sweep as a campaign grid (scenario x seed).

    The narrow codebook runs Silent Tracker's default configuration on
    the walk, rotation and vehicular scenarios.
    """
    return CampaignSpec(
        name=name,
        experiment="tracking",
        scenarios=SCENARIO_NAMES,
        protocols=("narrow",),
        seeds=n_trials,
        base_seed=base_seed,
        overrides={"default": {}},
    )
