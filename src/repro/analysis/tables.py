"""ASCII and markdown table rendering for benchmark and report output.

The benches print the same rows the paper's figures report; a plain
monospace table keeps the output diffable and terminal-friendly.  Both
table kinds render their cells the same way: floats to three decimals,
``None`` (a statistic with no sample) as ``-``.
"""

from __future__ import annotations

from typing import List, Sequence


def _render_cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def format_markdown_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Render headers + rows as a GitHub-flavoured markdown table."""
    lines = [
        "| " + " | ".join(headers) + " |",
        "|" + "|".join("---" for _ in headers) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(_render_cell(c) for c in row) + " |")
    return "\n".join(lines)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence],
    title: str = "",
) -> str:
    """Render headers + rows as an aligned ASCII table."""
    if not headers:
        raise ValueError("table needs at least one column")
    rendered_rows: List[List[str]] = [
        [_render_cell(cell) for cell in row] for row in rows
    ]
    for row in rendered_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row width {len(row)} does not match {len(headers)} headers"
            )
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "| " + " | ".join(c.ljust(widths[i]) for i, c in enumerate(cells)) + " |"

    separator = "+-" + "-+-".join("-" * w for w in widths) + "-+"
    parts: List[str] = []
    if title:
        parts.append(title)
    parts.append(separator)
    parts.append(line(list(headers)))
    parts.append(separator)
    for row in rendered_rows:
        parts.append(line(row))
    parts.append(separator)
    return "\n".join(parts)


def format_cdf_series(
    label: str, xs: Sequence[float], ps: Sequence[float], points: int = 10
) -> str:
    """Down-sampled one-line-per-point rendering of a CDF curve."""
    if len(xs) != len(ps):
        raise ValueError("xs and ps must be the same length")
    if not xs:
        raise ValueError("empty CDF series")
    n = len(xs)
    step = max(1, n // points)
    indices = list(range(0, n, step))
    if indices[-1] != n - 1:
        indices.append(n - 1)
    lines = [f"CDF {label}:"]
    for i in indices:
        lines.append(f"  x={xs[i]:.3f}  p={ps[i]:.2f}")
    return "\n".join(lines)
