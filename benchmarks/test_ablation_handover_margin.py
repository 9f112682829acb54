"""ABL-T: sweep the handover margin T (edge E threshold).

Small T triggers early — handover completes sooner after search, but
the target may be barely better than the serving cell.  Large T waits
until the target dominates, lengthening the tracked period.
"""

from repro.analysis.tables import format_table
from repro.experiments.ablations import sweep_handover_margin
from repro.experiments.fig2c import tracking_headline


def reproduce(n_trials):
    return sweep_handover_margin(
        margins_db=(0.0, 3.0, 6.0, 9.0), n_trials=n_trials, base_seed=1300
    )


def test_ablation_handover_margin(benchmark, trial_count):
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
            ["margin", "trials", "completion rate", "mean time (s)"],
            rows,
            title="Ablation: handover margin T (walk scenario)",
        )
    )
    # The paper's T=3 dB operating point completes reliably.
    assert summary["T=3dB"]["completed_per_trial"] >= 0.8
    # Earlier triggers complete no later than very conservative ones.
    eager = summary["T=0dB"]["mean_completion_s"]
    lazy = summary["T=9dB"]["mean_completion_s"]
    if eager is not None and lazy is not None:
        assert eager <= lazy + 0.5
