"""ABL-CB: sweep the mobile codebook (narrow / wide / omni) through the
full protocol.

Extends Fig. 2a's search-only comparison to the complete handover: the
omni mobile fails not just at search but at every stage, while wide
beams trade search speed against link margin.
"""

from repro.analysis.tables import format_table
from repro.campaign.aggregate import arm_headlines
from repro.campaign.runner import run_campaign
from repro.experiments.ablations import codebook_beamwidth_spec


def reproduce(n_trials):
    spec = codebook_beamwidth_spec(n_trials=n_trials, base_seed=1500)
    return arm_headlines(spec, run_campaign(spec).results_in_order(), "protocol")


def test_ablation_codebook(benchmark, trial_count):
    summary = benchmark.pedantic(
        reproduce, args=(max(10, trial_count // 2),), iterations=1, rounds=1
    )
    rows = [
        [
            label,
            headline["trials"],
            headline["completed_per_trial"],
            headline["mean_completion_s"],
        ]
        for label, headline in summary.items()
    ]
    print()
    print(
        format_table(
            ["codebook", "trials", "completion rate", "mean time (s)"],
            rows,
            title="Ablation: mobile codebook through the full protocol (walk)",
        )
    )
    # Directional codebooks complete; omni collapses end-to-end.
    assert summary["narrow"]["completed_per_trial"] >= 0.8
    assert (
        summary["narrow"]["completed_per_trial"]
        >= summary["omni"]["completed_per_trial"]
    )
    assert summary["omni"]["completed_per_trial"] <= 0.5
