"""ABL-PP: ping-pong handovers vs time-to-trigger.

A mobile loitering at the cell boundary sees the two cells' RSS cross
repeatedly as shadowing evolves.  The paper's minimal trigger (edge E
fires the moment smoothed ``RSS_N > RSS_S + T``) hands over on every
crossing, so the mobile "ping-pongs" between cells, each switch costing
signalling and a brief service dip.  NR counters this with a
time-to-trigger (TTT): the margin must hold continuously before the
event fires.  This ablation parks a slow walker at the boundary and
counts churn as a function of TTT.

The module registers the ``pingpong`` experiment kind: TTT arms are
config overrides (the campaign ``overrides`` axis), the ``protocols``
axis is the mobile codebook, and the boundary-loiter placement rides in
the cell params.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.api import Session, TrialSpec
from repro.campaign.spec import CampaignSpec, build_config, config_to_overrides
from repro.core.config import SilentTrackerConfig
from repro.registry import CODEBOOKS, register_experiment

#: Boundary-loiter defaults: the 'walk' trajectory started at the
#: equal-loss point gives a slow drift through the ping-pong zone.
PINGPONG_SCENARIO = "walk"
PINGPONG_START_X = 10.0
PINGPONG_DURATION_S = 12.0


@dataclass(frozen=True)
class PingPongTrialResult:
    """Handover churn observed in one boundary-loiter trial."""

    seed: int
    handovers: int
    ping_pongs: int  # immediate A->B->A returns
    mean_interruption_s: float


def count_ping_pongs(records) -> int:
    """A ping-pong = a completed handover straight back to the cell the
    previous completed handover came from.

    Shared metric definition: the ABL-PP ablation and the fleet
    population metrics count churn identically.
    """
    completed = [r for r in records if r.complete_s is not None]
    count = 0
    for previous, current in zip(completed, completed[1:]):
        if current.target_cell == previous.source_cell:
            count += 1
    return count


def _run_loiter_trial(
    config: SilentTrackerConfig,
    seed: int,
    duration_s: float,
    scenario: str = PINGPONG_SCENARIO,
    start_x: Optional[float] = PINGPONG_START_X,
    codebook: str = "narrow",
) -> PingPongTrialResult:
    """One boundary-loiter run of Silent Tracker under ``config``."""
    spec = TrialSpec(
        scenario=scenario,
        codebook=codebook,
        protocol="silent-tracker",
        seed=seed,
        duration_s=duration_s,
        start_x=start_x,
        config=config,
    )
    with Session(spec) as session:
        protocol = session.attach_protocol()
        session.run()
    completed = [
        r for r in protocol.handover_log.records if r.complete_s is not None
    ]
    interruptions = [r.interruption_s for r in completed]
    return PingPongTrialResult(
        seed=seed,
        handovers=len(completed),
        ping_pongs=count_ping_pongs(protocol.handover_log.records),
        mean_interruption_s=(
            sum(interruptions) / len(interruptions) if interruptions else 0.0
        ),
    )


# ----------------------------------------------------------- experiment kind
def _decode_pingpong(payload: dict) -> PingPongTrialResult:
    return PingPongTrialResult(**payload)


def pingpong_headline(trials) -> dict:
    """Handover churn of one time-to-trigger arm, per trial."""
    n = len(trials)
    return {
        "trials": n,
        "handovers_per_trial": sum(t.handovers for t in trials) / n,
        "ping_pongs_per_trial": sum(t.ping_pongs for t in trials) / n,
        "trials_with_ping_pong": sum(1 for t in trials if t.ping_pongs > 0),
    }


@register_experiment(
    "pingpong",
    decode=_decode_pingpong,
    headline=pingpong_headline,
    columns=(
        ("handovers/trial", "handovers_per_trial"),
        ("ping-pongs/trial", "ping_pongs_per_trial"),
        ("trials w/ ping-pong", "trials_with_ping_pong"),
    ),
    axis="codebook",
    protocol_axis="codebook",
    protocol_names=CODEBOOKS.names,
    default_protocols=("narrow",),
    description="handover churn at the cell boundary vs time-to-trigger",
    accepts_config=True,
)
def _run_pingpong_cell(cell) -> dict:
    config = build_config(cell.overrides) or SilentTrackerConfig()
    start_x = cell.params.get("start_x", PINGPONG_START_X)
    result = _run_loiter_trial(
        config,
        seed=cell.seed,
        duration_s=float(cell.params.get("duration_s", PINGPONG_DURATION_S)),
        scenario=cell.scenario,
        start_x=None if start_x is None else float(start_x),
        codebook=cell.protocol,
    )
    return dataclasses.asdict(result)


def _ttt_label(time_to_trigger_s: float) -> str:
    return f"ttt={int(round(time_to_trigger_s * 1000))}ms"


def pingpong_spec(
    ttt_s_values: Sequence[float] = (0.0, 0.16, 0.48),
    n_trials: int = 10,
    base_seed: int = 8000,
) -> CampaignSpec:
    """The TTT churn sweep as a campaign grid (override-label x seed).

    Every arm keeps the 3 dB handover margin and loiters for
    :data:`PINGPONG_DURATION_S`.
    """
    overrides = {
        _ttt_label(value): config_to_overrides(
            SilentTrackerConfig(handover_margin_db=3.0, time_to_trigger_s=value)
        )
        for value in ttt_s_values
    }
    return CampaignSpec(
        name="pingpong",
        experiment="pingpong",
        scenarios=(PINGPONG_SCENARIO,),
        protocols=("narrow",),
        seeds=n_trials,
        base_seed=base_seed,
        overrides=overrides,
        params={"duration_s": PINGPONG_DURATION_S, "start_x": PINGPONG_START_X},
    )
