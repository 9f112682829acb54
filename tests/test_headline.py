"""Every experiment kind summarizes each of its arms.

``repro campaign summarize`` prints one row per (scenario, protocol,
override) arm with the kind's headline statistics after the ``cells``
column, for every built-in kind.
"""

import pytest

from repro.campaign.aggregate import summarize_campaign
from repro.campaign.runner import run_campaign
from repro.campaign.spec import CampaignSpec
from repro.registry import EXPERIMENTS

#: One small grid per built-in kind: at least two arms each.
BUILTIN_SPECS = {
    "search": dict(scenarios=("walk",), protocols=("narrow", "omni")),
    "tracking": dict(scenarios=("walk", "vehicular"), protocols=("narrow",)),
    "comparison": dict(scenarios=("vehicular",),
                       protocols=("silent-tracker", "reactive")),
    "workload": dict(scenarios=("walk",), protocols=("best", "fixed"),
                     params={"duration_s": 1.0}),
    "hierarchical": dict(scenarios=("walk",),
                         protocols=("exhaustive", "hierarchical")),
    "pingpong": dict(scenarios=("walk",), protocols=("narrow",),
                     overrides={"ttt=0ms": {"time_to_trigger_s": 0.0},
                                "ttt=160ms": {"time_to_trigger_s": 0.16}},
                     params={"duration_s": 3.0, "start_x": 10.0}),
    "fleet": dict(scenarios=("walk",), protocols=("uniform", "mobility-blend"),
                  params={"n_users": 2, "duration_s": 1.0}),
}


def test_every_builtin_kind_is_covered():
    assert set(BUILTIN_SPECS) <= set(EXPERIMENTS.names())
    assert len(BUILTIN_SPECS) == 7


@pytest.mark.parametrize("kind", sorted(BUILTIN_SPECS))
def test_summary_has_one_filled_row_per_arm(kind):
    spec = CampaignSpec(
        name=f"summary-{kind}", experiment=kind, seeds=1, base_seed=9100,
        **BUILTIN_SPECS[kind],
    )
    result = run_campaign(spec)
    headers, rows = summarize_campaign(spec, result.results_in_order())
    arms = [
        (scenario, protocol, label)
        for scenario in spec.scenarios
        for protocol in spec.protocols
        for label in spec.overrides
    ]
    assert [tuple(row[:3]) for row in rows] == arms
    assert headers.index("cells") == 3
    assert len(headers) > 4, headers
    assert all(len(row) == len(headers) for row in rows)
