"""ABL-ADAPT: sweep the 3 dB adaptation threshold (edges A/G/H).

Evaluated under device rotation — the scenario where receive-beam
adaptation does all the work.  Too tight (1 dB) burns measurement
budget probing; too loose (6 dB) lets alignment decay toward the 10 dB
loss edge and forces re-acquisitions.
"""

from repro.analysis.tables import format_table
from repro.campaign.aggregate import arm_headlines
from repro.campaign.runner import run_campaign
from repro.experiments.ablations import adapt_threshold_spec


def reproduce(n_trials):
    spec = adapt_threshold_spec(
        thresholds_db=(1.0, 3.0, 6.0), n_trials=n_trials, base_seed=1400
    )
    return arm_headlines(
        spec, run_campaign(spec).results_in_order(), "override_label"
    )


def test_ablation_adapt_threshold(benchmark, trial_count):
    summary = benchmark.pedantic(
        reproduce, args=(max(10, trial_count // 2),), iterations=1, rounds=1
    )
    rows = [
        [
            label,
            headline["completed_per_trial"],
            headline["switches_per_completed"],
            headline["reacquisitions_per_completed"],
        ]
        for label, headline in summary.items()
    ]
    print()
    print(
        format_table(
            ["threshold", "completion rate", "beam switches", "reacquisitions"],
            rows,
            title="Ablation: adaptation threshold (rotation scenario)",
        )
    )
    # The paper's 3 dB point must work under rotation.
    assert summary["adapt=3dB"]["completed_per_trial"] >= 0.7
