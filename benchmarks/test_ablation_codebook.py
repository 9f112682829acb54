"""ABL-CB: sweep the mobile codebook (narrow / wide / omni) through the
full protocol.

Extends Fig. 2a's search-only comparison to the complete handover: the
omni mobile fails not just at search but at every stage, while wide
beams trade search speed against link margin.
"""

from repro.analysis.tables import format_table
from repro.experiments.ablations import sweep_codebook_beamwidth
from repro.experiments.fig2c import tracking_headline


def reproduce(n_trials):
    return sweep_codebook_beamwidth(n_trials=n_trials, base_seed=1500)


def test_ablation_codebook(benchmark, trial_count):
    sweep = benchmark.pedantic(
        reproduce, args=(max(10, trial_count // 2),), iterations=1, rounds=1
    )
    summary = {
        label: tracking_headline(trials) for label, trials in sweep.items()
    }
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
