"""Silent Tracker vs. reactive hard handover vs. genie oracle.

The comparison the paper's introduction motivates: a reactive mobile
that ignores neighbors until its serving link dies pays the full
directional search plus context-free initial access — seconds of
interruption — while Silent Tracker's silently tracked beam converts
the same crossing into a make-before-break switch.

The module registers the ``comparison`` experiment kind: its campaign
``protocols`` axis is the protocol arm itself, validated against
:data:`repro.registry.PROTOCOLS` — so a plugin protocol registered via
:func:`repro.registry.register_protocol` slots straight into the same
paired-seed grid as the paper's three arms.

Softness is reported two ways, and :func:`comparison_headline` names
both by what they count:

* ``soft`` is a **count**: soft handovers summed over the arm's trials
  (every completed handover of a trial, not only its first).  ``repro
  campaign summarize`` prints it as "soft", next to the ``hard`` count.
* ``soft_per_resolved`` is a **ratio**: soft / (soft + hard) over the
  same handovers, ``None`` when none completed.  ``repro compare`` and
  ``repro report`` print it as "soft ratio".

``completed_any`` counts the trials with at least one completed
handover, and ``mean_first_interruption_s`` averages the first completed
handover's service interruption over those trials.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.api import Session, TrialSpec
from repro.campaign.aggregate import group_trials
from repro.campaign.runner import run_campaign
from repro.campaign.spec import CampaignSpec, build_config
from repro.core.config import SilentTrackerConfig
from repro.net.handover import HandoverOutcome
from repro.registry import PROTOCOLS, register_experiment

SERVING_CELL = "cellA"

#: Long enough for the serving link to actually die in every scenario,
#: which the reactive baseline requires before it does anything.
#: Scenarios not listed here fall back to their registered duration.
COMPARISON_DURATION_S = {"walk": 20.0, "rotation": 12.0, "vehicular": 6.0}


@dataclass(frozen=True)
class ComparisonTrialResult:
    """Per-trial outcome for one protocol arm."""

    protocol: str
    scenario: str
    seed: int
    handovers_completed: int
    soft_handovers: int
    hard_handovers: int
    #: Service interruption of the first completed handover (seconds).
    first_interruption_s: Optional[float]


def run_comparison_trial(
    protocol_name: str,
    scenario: str,
    seed: int = 1,
    config: Optional[SilentTrackerConfig] = None,
    codebook: str = "narrow",
    duration_s: Optional[float] = None,
) -> ComparisonTrialResult:
    """Run one registered protocol arm through one scenario."""
    # The walk must continue well past the boundary so the serving cell
    # genuinely dies for the reactive arm; start further back so Silent
    # Tracker sees the same crossing.
    if duration_s is None:
        duration_s = COMPARISON_DURATION_S.get(scenario)
    spec = TrialSpec(
        scenario=scenario,
        codebook=codebook,
        protocol=protocol_name,
        seed=seed,
        duration_s=duration_s,
        serving_cell=SERVING_CELL,
        config=config,
    )
    with Session(spec) as session:
        protocol = session.attach_protocol()
        session.run()
    records = [r for r in protocol.handover_log.records if r.complete_s is not None]
    first = records[0] if records else None
    return ComparisonTrialResult(
        protocol=protocol_name,
        scenario=scenario,
        seed=seed,
        handovers_completed=len(records),
        soft_handovers=sum(
            1 for r in records if r.outcome is HandoverOutcome.SOFT
        ),
        hard_handovers=sum(
            1 for r in records if r.outcome is HandoverOutcome.HARD
        ),
        first_interruption_s=first.interruption_s if first else None,
    )


# ----------------------------------------------------------- experiment kind
def _decode_comparison(payload: dict) -> ComparisonTrialResult:
    return ComparisonTrialResult(**payload)


def comparison_headline(trials) -> dict:
    """Handover counts, softness and interruption of one protocol arm.

    See the module docstring for ``soft`` (a count) versus
    ``soft_per_resolved`` (a ratio).
    """
    completed = [t for t in trials if t.handovers_completed > 0]
    interruptions = tuple(
        t.first_interruption_s
        for t in completed
        if t.first_interruption_s is not None
    )
    soft = sum(t.soft_handovers for t in trials)
    hard = sum(t.hard_handovers for t in trials)
    return {
        "trials": len(trials),
        "completed_any": len(completed),
        "soft": soft,
        "hard": hard,
        "soft_per_resolved": soft / (soft + hard) if soft + hard else None,
        "mean_first_interruption_s": (
            sum(interruptions) / len(interruptions) if interruptions else None
        ),
        "first_interruptions_s": interruptions,
    }


@register_experiment(
    "comparison",
    decode=_decode_comparison,
    headline=comparison_headline,
    columns=(
        ("completed", "completed_any"),
        ("soft", "soft"),
        ("hard", "hard"),
        ("soft ratio", "soft_per_resolved"),
        ("mean interruption (s)", "mean_first_interruption_s"),
    ),
    axis="protocol",
    protocol_axis="protocol",
    protocol_names=PROTOCOLS.names,
    default_protocols=("silent-tracker", "reactive", "oracle"),
    description="protocol arms head to head over paired seeds",
    accepts_config=True,
)
def _run_comparison_cell(cell) -> dict:
    return dataclasses.asdict(
        run_comparison_trial(
            cell.protocol,
            cell.scenario,
            seed=cell.seed,
            config=build_config(cell.overrides),
            codebook=str(cell.params.get("codebook", "narrow")),
            duration_s=cell.params.get("duration_s"),
        )
    )


def comparison_spec(
    scenario: str = "vehicular",
    n_trials: int = 20,
    base_seed: int = 700,
) -> CampaignSpec:
    """The baseline comparison as a campaign grid (protocol x seed).

    The arms are Silent Tracker, the reactive baseline and the oracle.
    """
    return CampaignSpec(
        name="comparison",
        experiment="comparison",
        scenarios=(scenario,),
        protocols=("silent-tracker", "reactive", "oracle"),
        seeds=n_trials,
        base_seed=base_seed,
    )


def run_comparison(
    scenario: str = "vehicular",
    n_trials: int = 20,
    base_seed: int = 700,
    workers: int = 1,
) -> Dict[str, List[ComparisonTrialResult]]:
    """All three protocol arms over the same seeds (paired comparison).

    Thin wrapper over :func:`repro.campaign.runner.run_campaign` on the
    :func:`comparison_spec` grid.  Returns ``{protocol: [trial, ...]}``
    in grid order; :func:`comparison_headline` summarizes an arm.
    """
    spec = comparison_spec(
        scenario=scenario,
        n_trials=n_trials,
        base_seed=base_seed,
    )
    result = run_campaign(spec, workers=workers)
    return group_trials(result.results_in_order(), "protocol")
