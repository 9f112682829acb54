"""Ablation sweeps over Silent Tracker's design constants.

The paper fixes the 3 dB adaptation threshold, the handover margin T
and the receive codebook; these sweeps quantify how sensitive the
headline behaviour is to each — the analysis a full-paper evaluation
would include.  Every sweep runs the ``tracking`` experiment kind and
returns ``{arm: [trial, ...]}``;
:func:`repro.experiments.fig2c.tracking_headline` summarizes an arm.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.campaign.aggregate import group_trials
from repro.campaign.runner import run_campaign
from repro.campaign.spec import CampaignSpec, config_to_overrides
from repro.core.beamsurfer import BeamSurferConfig
from repro.core.config import SilentTrackerConfig
from repro.experiments.fig2c import TrackingTrialResult


def sweep_spec(
    configs: Dict[str, SilentTrackerConfig],
    scenario: str,
    n_trials: int,
    base_seed: int,
    codebook: str = "narrow",
    name: str = "ablation",
) -> CampaignSpec:
    """An ablation sweep as a campaign grid (override-label x seed)."""
    return CampaignSpec(
        name=name,
        experiment="tracking",
        scenarios=(scenario,),
        protocols=(codebook,),
        seeds=n_trials,
        base_seed=base_seed,
        overrides={
            label: config_to_overrides(config)
            for label, config in configs.items()
        },
    )


def _run_sweep(
    configs: Dict[str, SilentTrackerConfig],
    scenario: str,
    n_trials: int,
    base_seed: int,
    codebook: str = "narrow",
    workers: int = 1,
) -> Dict[str, List[TrackingTrialResult]]:
    spec = sweep_spec(configs, scenario, n_trials, base_seed, codebook)
    result = run_campaign(spec, workers=workers)
    return group_trials(result.results_in_order(), "override_label")


def sweep_handover_margin(
    margins_db: Sequence[float] = (0.0, 3.0, 6.0, 9.0),
    scenario: str = "walk",
    n_trials: int = 20,
    base_seed: int = 300,
    workers: int = 1,
) -> Dict[str, List[TrackingTrialResult]]:
    """Sweep the margin T of edge E.

    Small T hands over early (risking ping-pong and weak-target RACH);
    large T delays until the serving link is nearly dead.
    """
    configs = {}
    for margin in margins_db:
        hysteresis = min(1.5, max(0.0, margin))
        configs[f"T={margin:g}dB"] = SilentTrackerConfig(
            handover_margin_db=margin, handover_hysteresis_db=hysteresis
        )
    return _run_sweep(configs, scenario, n_trials, base_seed, workers=workers)


def sweep_adapt_threshold(
    thresholds_db: Sequence[float] = (1.0, 3.0, 6.0),
    scenario: str = "rotation",
    n_trials: int = 20,
    base_seed: int = 400,
    workers: int = 1,
) -> Dict[str, List[TrackingTrialResult]]:
    """Sweep the 3 dB adaptation threshold (edges A/G/H).

    Tight thresholds switch beams eagerly (more dwells burnt probing);
    loose ones let alignment decay toward the 10 dB loss edge.
    """
    configs = {}
    for threshold in thresholds_db:
        configs[f"adapt={threshold:g}dB"] = SilentTrackerConfig(
            adapt_threshold_db=threshold,
            beamsurfer=BeamSurferConfig(adapt_threshold_db=threshold),
        )
    return _run_sweep(configs, scenario, n_trials, base_seed, workers=workers)


def sweep_codebook_beamwidth(
    scenario: str = "walk",
    n_trials: int = 20,
    base_seed: int = 500,
    workers: int = 1,
) -> Dict[str, List[TrackingTrialResult]]:
    """Sweep the mobile codebook granularity (narrow vs wide vs omni).

    The codebook is the campaign's protocol axis, so the grouping here
    is by protocol rather than by override label.
    """
    spec = CampaignSpec(
        name="ablation-codebook",
        experiment="tracking",
        scenarios=(scenario,),
        protocols=("narrow", "wide", "omni"),
        seeds=n_trials,
        base_seed=base_seed,
        overrides={"default": config_to_overrides(SilentTrackerConfig())},
    )
    result = run_campaign(spec, workers=workers)
    return group_trials(result.results_in_order(), "protocol")

