#!/usr/bin/env python
"""Multi-trial baseline comparison across all three mobility scenarios.

Aggregates Silent Tracker, the reactive hard-handover baseline and the
genie oracle over many seeded trials per scenario, and prints the
summary table the ABL-BASE bench asserts on.

Run:  python examples/baseline_comparison.py [n_trials]
"""

import sys

from repro.analysis.tables import format_table
from repro.campaign.aggregate import arm_headlines
from repro.campaign.runner import run_campaign
from repro.experiments.comparison import comparison_spec


def main() -> None:
    n_trials = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    for scenario in ("walk", "rotation", "vehicular"):
        spec = comparison_spec(
            scenario=scenario, n_trials=n_trials, base_seed=4200
        )
        headlines = arm_headlines(
            spec, run_campaign(spec).results_in_order(), "protocol"
        )
        rows = []
        for protocol, headline in headlines.items():
            rows.append(
                [
                    protocol,
                    headline["trials"],
                    headline["completed_any"],
                    headline["soft_per_resolved"],
                    headline["mean_first_interruption_s"],
                ]
            )
        print(
            format_table(
                ["protocol", "trials", "completed", "soft ratio",
                 "mean interruption (s)"],
                rows,
                title=f"Scenario: {scenario}",
            )
        )
        print()


if __name__ == "__main__":
    main()
