"""ABL-ADAPT: sweep the 3 dB adaptation threshold (edges A/G/H).

Evaluated under device rotation — the scenario where receive-beam
adaptation does all the work.  Too tight (1 dB) burns measurement
budget probing; too loose (6 dB) lets alignment decay toward the 10 dB
loss edge and forces re-acquisitions.
"""

from repro.analysis.tables import format_table
from repro.experiments.ablations import sweep_adapt_threshold
from repro.experiments.fig2c import tracking_headline


def reproduce(n_trials):
    return sweep_adapt_threshold(
        thresholds_db=(1.0, 3.0, 6.0), n_trials=n_trials, base_seed=1400
    )


def test_ablation_adapt_threshold(benchmark, trial_count):
    sweep = benchmark.pedantic(
        reproduce, args=(max(10, trial_count // 2),), iterations=1, rounds=1
    )
    summary = {
        label: tracking_headline(trials) for label, trials in sweep.items()
    }
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
