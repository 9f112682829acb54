"""Result analysis: empirical CDFs, summaries, and ASCII tables/reports."""

# NOTE: repro.analysis.report is intentionally NOT imported here — it
# pulls in repro.experiments (which itself uses repro.analysis.stats),
# and an eager import would create a cycle.  Import it explicitly:
# ``from repro.analysis.report import generate_report``.
from repro.analysis.stats import empirical_cdf, summarize
from repro.analysis.tables import format_table

__all__ = [
    "empirical_cdf",
    "format_table",
    "summarize",
]
