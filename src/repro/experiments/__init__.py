"""Experiment kinds and campaign specs for every figure in the paper.

* :mod:`repro.experiments.scenarios` — the cell-edge deployment (three
  base stations, one mobile) and the three mobility scenarios.
* :mod:`repro.experiments.fig2a` — directional search latency and
  success rate by beamwidth (Fig. 2a, both panels).
* :mod:`repro.experiments.fig2c` — soft-handover completion-time CDFs
  for walk / rotation / vehicular (Fig. 2c).
* :mod:`repro.experiments.ablations` — threshold and codebook sweeps.
* :mod:`repro.experiments.comparison` — Silent Tracker vs reactive hard
  handover vs oracle.
* :mod:`repro.experiments.hierarchical` — exhaustive vs two-stage
  (coarse -> fine) neighbor search.
* :mod:`repro.experiments.pingpong` — handover churn vs time-to-trigger.
* :mod:`repro.experiments.workloads` — canned RSS traces.

Each module registers its scenario/codebook/experiment arms in
:mod:`repro.registry`; trials run through the
:class:`repro.api.Session` lifecycle.  An experiment is a ``*_spec``
builder returning a :class:`~repro.campaign.spec.CampaignSpec`: run it
with :func:`~repro.campaign.runner.run_campaign` and read the result as
``{arm: headline}`` with :func:`~repro.campaign.aggregate.arm_headlines`
(example in :mod:`repro.campaign.aggregate`).
"""

from repro.experiments.scenarios import (
    SCENARIO_NAMES,
    build_cell_edge_deployment,
    make_mobile_codebook,
    make_trajectory,
)
from repro.experiments.fig2a import (
    SearchTrialResult,
    fig2a_spec,
    run_search_trial,
)
from repro.experiments.fig2c import (
    TrackingTrialResult,
    fig2c_spec,
    run_tracking_trial,
)

__all__ = [
    "SCENARIO_NAMES",
    "SearchTrialResult",
    "TrackingTrialResult",
    "build_cell_edge_deployment",
    "fig2a_spec",
    "fig2c_spec",
    "make_mobile_codebook",
    "make_trajectory",
    "run_search_trial",
    "run_tracking_trial",
]
