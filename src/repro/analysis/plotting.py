"""Terminal plotting: ASCII CDF curves and sparklines.

The paper's figures are line/bar charts; these helpers render the same
series legibly in a terminal so benches and the CLI can show *shapes*,
not just summary numbers, without a plotting dependency.
"""

from __future__ import annotations

from typing import List, Sequence

#: Eighth-block characters for sparklines, lowest to highest.
_SPARK_LEVELS = " ▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float]) -> str:
    """One-line sparkline of a numeric series.

    >>> sparkline([0, 1, 2, 3])
    '▁▃▅█'
    """
    if not values:
        raise ValueError("empty series")
    low = min(values)
    high = max(values)
    span = high - low
    if span <= 0.0:
        return _SPARK_LEVELS[4] * len(values)
    ticks = _SPARK_LEVELS[1:]
    chars = []
    for value in values:
        index = int((value - low) / span * (len(ticks) - 1))
        chars.append(ticks[index])
    return "".join(chars)


def ascii_cdf_plot(
    series: dict,
    width: int = 60,
    height: int = 12,
    x_label: str = "x",
) -> str:
    """Multi-series CDF plot on a character grid.

    ``series`` maps label -> sorted sample list.  Each series gets a
    distinct marker; the grid spans the pooled sample range.
    """
    if not series:
        raise ValueError("no series")
    markers = "*o+x#@"
    pooled: List[float] = []
    for values in series.values():
        if not values:
            raise ValueError("a series is empty")
        pooled.extend(values)
    x_min, x_max = min(pooled), max(pooled)
    span = max(x_max - x_min, 1e-12)
    grid = [[" "] * width for _ in range(height)]
    for series_index, (label, values) in enumerate(sorted(series.items())):
        ordered = sorted(values)
        n = len(ordered)
        marker = markers[series_index % len(markers)]
        for i, x in enumerate(ordered):
            p = (i + 1) / n
            col = int((x - x_min) / span * (width - 1))
            row = height - 1 - int(p * (height - 1))
            grid[row][col] = marker
    lines = []
    for row_index, row in enumerate(grid):
        p = 1.0 - row_index / (height - 1)
        lines.append(f"{p:4.2f} |" + "".join(row))
    lines.append("     +" + "-" * width)
    lines.append(f"      {x_min:<12.3g}{'':^{max(0, width - 24)}}{x_max:>12.3g}")
    legend = "  ".join(
        f"{markers[i % len(markers)]} {label}"
        for i, label in enumerate(sorted(series))
    )
    lines.append(f"      {x_label}   [{legend}]")
    return "\n".join(lines)

