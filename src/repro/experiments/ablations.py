"""Ablation sweeps over Silent Tracker's design constants.

The paper fixes the 3 dB adaptation threshold, the handover margin T
and the receive codebook; these sweeps quantify how sensitive the
headline behaviour is to each — the analysis a full-paper evaluation
would include.  Every sweep is a ``tracking`` campaign grid built by a
``*_spec`` function; run it and read each arm's
:func:`repro.experiments.fig2c.tracking_headline` with
:func:`repro.campaign.aggregate.arm_headlines`, keyed by
``"override_label"`` for the margin and threshold sweeps and by
``"protocol"`` for the codebook sweep.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.campaign.spec import CampaignSpec, config_to_overrides
from repro.core.beamsurfer import BeamSurferConfig
from repro.core.config import SilentTrackerConfig


def _sweep_spec(
    configs: Dict[str, SilentTrackerConfig],
    scenario: str,
    n_trials: int,
    base_seed: int,
) -> CampaignSpec:
    """The narrow codebook over an override-label x seed grid."""
    return CampaignSpec(
        name="ablation",
        experiment="tracking",
        scenarios=(scenario,),
        protocols=("narrow",),
        seeds=n_trials,
        base_seed=base_seed,
        overrides={
            label: config_to_overrides(config)
            for label, config in configs.items()
        },
    )


def handover_margin_spec(
    margins_db: Sequence[float] = (0.0, 3.0, 6.0, 9.0),
    n_trials: int = 20,
    base_seed: int = 300,
) -> CampaignSpec:
    """Sweep the margin T of edge E on the walk scenario.

    Small T hands over early (risking ping-pong and weak-target RACH);
    large T delays until the serving link is nearly dead.
    """
    configs = {}
    for margin in margins_db:
        hysteresis = min(1.5, max(0.0, margin))
        configs[f"T={margin:g}dB"] = SilentTrackerConfig(
            handover_margin_db=margin, handover_hysteresis_db=hysteresis
        )
    return _sweep_spec(configs, "walk", n_trials, base_seed)


def adapt_threshold_spec(
    thresholds_db: Sequence[float] = (1.0, 3.0, 6.0),
    n_trials: int = 20,
    base_seed: int = 400,
) -> CampaignSpec:
    """Sweep the 3 dB adaptation threshold (edges A/G/H) on rotation.

    Tight thresholds switch beams eagerly (more dwells burnt probing);
    loose ones let alignment decay toward the 10 dB loss edge.
    """
    configs = {}
    for threshold in thresholds_db:
        configs[f"adapt={threshold:g}dB"] = SilentTrackerConfig(
            adapt_threshold_db=threshold,
            beamsurfer=BeamSurferConfig(adapt_threshold_db=threshold),
        )
    return _sweep_spec(configs, "rotation", n_trials, base_seed)


def codebook_beamwidth_spec(
    n_trials: int = 20,
    base_seed: int = 500,
) -> CampaignSpec:
    """Sweep the mobile codebook granularity (narrow vs wide vs omni) on walk.

    The codebook is the campaign's protocol axis, so this sweep's arms
    are keyed by protocol rather than by override label.
    """
    return CampaignSpec(
        name="ablation-codebook",
        experiment="tracking",
        scenarios=("walk",),
        protocols=("narrow", "wide", "omni"),
        seeds=n_trials,
        base_seed=base_seed,
        overrides={"default": config_to_overrides(SilentTrackerConfig())},
    )
