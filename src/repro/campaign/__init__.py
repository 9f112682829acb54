"""Parallel experiment campaigns with persistent artifacts and resume.

A **campaign** declares a grid of simulation cells — scenario x protocol
x config-override x seed — and executes them across a worker pool while
writing one JSON artifact per cell:

* :mod:`repro.campaign.spec` — :class:`CampaignSpec` / the content-hashed
  :class:`CampaignCell` grid.
* :mod:`repro.campaign.runner` — serial / process-pool execution,
  deterministic regardless of worker count (shared with sharded fleets).
* :mod:`repro.campaign.store` — the on-disk task store and resume
  bookkeeping (shared with sharded fleets).
* :mod:`repro.campaign.aggregate` — artifacts grouped into arms, each
  summarized by its experiment kind's headline statistics.
* :mod:`repro.campaign.progress` — reporting hooks for the CLI.

Quickstart::

    from repro.campaign import CampaignSpec, run_campaign

    spec = CampaignSpec(
        name="demo",
        experiment="comparison",
        scenarios=("walk", "vehicular"),
        protocols=("silent-tracker", "reactive"),
        seeds=6,
        base_seed=700,
    )
    result = run_campaign(spec, out_dir="out/demo", workers=4)

Interrupt it, run it again: completed cells are skipped.
"""

from repro.campaign.aggregate import (
    group_trials,
    headline_table,
    load_campaign,
    summarize_campaign,
)
from repro.campaign.progress import ConsoleProgress, NullProgress, ProgressReporter
from repro.campaign.runner import (
    CampaignError,
    CampaignResult,
    decode_payload,
    execute_cell,
    resume_campaign,
    run_campaign,
)
from repro.campaign.spec import (
    CampaignCell,
    CampaignSpec,
    SpecError,
    build_config,
    config_to_overrides,
    load_spec,
)
from repro.campaign.store import ArtifactStore, StoreError


def __getattr__(name: str):
    # Back-compat aliases for the pre-registry experiment table: both
    # now resolve through repro.registry (lazily, to keep importing
    # this package from pulling in every experiment module).
    if name == "EXPERIMENTS":
        from repro.registry import EXPERIMENTS

        return EXPERIMENTS
    if name == "EXPERIMENT_KINDS":
        from repro.registry import EXPERIMENTS

        return EXPERIMENTS.names()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "EXPERIMENTS",
    "EXPERIMENT_KINDS",
    "ArtifactStore",
    "CampaignCell",
    "CampaignError",
    "CampaignResult",
    "CampaignSpec",
    "ConsoleProgress",
    "NullProgress",
    "ProgressReporter",
    "SpecError",
    "StoreError",
    "build_config",
    "config_to_overrides",
    "decode_payload",
    "execute_cell",
    "group_trials",
    "headline_table",
    "load_campaign",
    "load_spec",
    "resume_campaign",
    "run_campaign",
    "summarize_campaign",
]
