"""Full reproduction report generator.

Ties every experiment together into one markdown document mirroring the
paper's evaluation section: Fig. 2a (both panels), Fig. 2b coverage,
Fig. 2c, and the extension ablations.  The ``examples/generate_report.py``
script and EXPERIMENTS.md are produced from this.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analysis.stats import empirical_cdf
from repro.analysis.tables import format_markdown_table
from repro.campaign.aggregate import headline_table
from repro.experiments.comparison import comparison_headline, run_comparison
from repro.experiments.fig2a import run_fig2a
from repro.experiments.fig2c import run_fig2c


def _percent(name: str):
    return lambda headline: (
        None if headline[name] is None else f"{100.0 * headline[name]:.0f}%"
    )


def fig2a_section(n_trials: int, base_seed: int = 5000) -> str:
    """Markdown for both Fig. 2a panels."""
    results = run_fig2a(n_trials=n_trials, base_seed=base_seed)
    headlines = {
        kind: results[kind]["headline"] for kind in ("narrow", "wide", "omni")
    }
    columns = (
        ("search success", _percent("successes_per_trial")),
        ("mean dwells", "mean_dwells"),
        ("median dwells", "p50_dwells"),
    )
    table = format_markdown_table(
        *headline_table(("codebook",), headlines, columns)
    )
    return (
        "## Fig. 2a — directional search under mobility (human walk)\n\n"
        + table
        + "\n\nExpected shape: success narrow > wide >> omni; latency "
        "(dwell count) narrow > wide.\n"
    )


def fig2c_section(n_trials: int, base_seed: int = 5100) -> str:
    """Markdown for the Fig. 2c CDFs."""
    results = run_fig2c(n_trials=n_trials, base_seed=base_seed)
    headlines = {
        scenario: results[scenario]["headline"]
        for scenario in ("walk", "rotation", "vehicular")
    }
    columns = (
        ("completion", _percent("completed_per_trial")),
        ("soft", _percent("soft_per_completed")),
        ("p50 (s)", "p50_completion_s"),
        ("p90 (s)", "p90_completion_s"),
    )
    cdf_lines = []
    for scenario, headline in headlines.items():
        times = headline["completion_times_s"]
        if times:
            xs, ps = empirical_cdf(times)
            points = ", ".join(
                f"({x:.2f}s, {p:.2f})"
                for x, p in zip(xs[:: max(1, len(xs) // 6)],
                                ps[:: max(1, len(ps) // 6)])
            )
            cdf_lines.append(f"* {scenario}: {points}")
    table = format_markdown_table(
        *headline_table(("scenario",), headlines, columns)
    )
    return (
        "## Fig. 2c — soft-handover completion time\n\n"
        + table
        + "\n\nEmpirical CDF samples:\n\n"
        + "\n".join(cdf_lines)
        + "\n"
    )


def comparison_section(n_trials: int, base_seed: int = 5200) -> str:
    """Markdown for the Silent Tracker vs baselines comparison."""
    results = run_comparison(
        scenario="vehicular", n_trials=n_trials, base_seed=base_seed
    )
    headlines = {
        protocol: comparison_headline(trials)
        for protocol, trials in results.items()
    }
    columns = (
        ("completed", "completed_any"),
        ("soft ratio", "soft_per_resolved"),
        ("mean interruption (s)", "mean_first_interruption_s"),
    )
    table = format_markdown_table(
        *headline_table(("protocol",), headlines, columns)
    )
    return (
        "## Baseline comparison (vehicular)\n\n"
        + table
        + "\n\nExpected shape: Silent Tracker and the oracle hand over "
        "softly with ~tens of ms interruption; the reactive baseline "
        "always hands over hard after >1 s of outage.\n"
    )


def generate_report(
    n_trials: int = 20,
    sections: Optional[List[str]] = None,
    base_seed: int = 5000,
) -> str:
    """The full markdown report.

    ``sections`` selects from ``{"fig2a", "fig2c", "comparison"}``
    (all by default).
    """
    if n_trials < 1:
        raise ValueError(f"need >= 1 trial, got {n_trials!r}")
    wanted = sections or ["fig2a", "fig2c", "comparison"]
    builders: Dict[str, callable] = {
        "fig2a": lambda: fig2a_section(n_trials, base_seed),
        "fig2c": lambda: fig2c_section(n_trials, base_seed + 100),
        "comparison": lambda: comparison_section(
            max(6, n_trials // 2), base_seed + 200
        ),
    }
    unknown = [s for s in wanted if s not in builders]
    if unknown:
        raise ValueError(f"unknown sections {unknown!r}")
    parts = [
        "# Silent Tracker reproduction report",
        "",
        f"Trials per arm: {n_trials}.  All numbers regenerate "
        "deterministically from the seeds in the experiment modules.",
        "",
    ]
    for section in wanted:
        parts.append(builders[section]())
        parts.append("")
    return "\n".join(parts)
