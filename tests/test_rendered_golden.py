"""Golden pins of the rendered headline tables.

The figure commands (``repro fig2a``, ``fig2c``, ``compare``), the
markdown report and ``repro campaign summarize`` all print the per-arm
headline statistics of an experiment kind.  The committed text under
``tests/data/golden_text/`` holds what each printed for small seeded
runs.  Regenerate it with::

    PYTHONPATH=src python -c "import tests.test_rendered_golden as t; \
t.write_golden()"

The figure, compare and report text must match byte for byte.  A
``campaign summarize`` table may gain columns, but every golden column
must still be printed under the same header with the same cell text,
in the same row order.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest

from repro.campaign.runner import run_campaign
from repro.campaign.spec import CampaignSpec

GOLDEN_DIR = Path(__file__).resolve().parent / "data" / "golden_text"

#: Figure and compare commands, rendered byte for byte.
COMMANDS = {
    "fig2a": ["fig2a", "--trials", "3", "--seed", "6000"],
    "fig2c": ["fig2c", "--trials", "2", "--seed", "6100"],
    "compare": ["compare", "--trials", "2", "--seed", "6200"],
}

#: One-seed campaigns whose ``campaign summarize`` columns are pinned.
SUMMARY_SPECS = {
    "search": dict(scenarios=("walk", "vehicular"),
                   protocols=("narrow", "wide", "omni"), base_seed=6400),
    "tracking": dict(scenarios=("walk", "rotation", "vehicular"),
                     protocols=("narrow",), base_seed=6500),
    "comparison": dict(scenarios=("vehicular",),
                       protocols=("silent-tracker", "reactive", "oracle"),
                       base_seed=6600),
    "workload": dict(scenarios=("walk",), protocols=("best", "fixed"),
                     base_seed=6700, params={"duration_s": 1.0}),
    "fleet": dict(scenarios=("walk",), protocols=("uniform", "mobility-blend"),
                  base_seed=6800, params={"n_users": 3, "duration_s": 1.0}),
}


def _stdout(run) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        run()
    return buffer.getvalue()


def render_command(name: str) -> str:
    from repro.cli import main

    return _stdout(lambda: main(COMMANDS[name]))


def render_report() -> str:
    from repro.analysis.report import generate_report

    return generate_report(n_trials=2, base_seed=6300)


def summary_spec(kind: str) -> CampaignSpec:
    return CampaignSpec(
        name=f"golden-{kind}", experiment=kind, seeds=1, **SUMMARY_SPECS[kind]
    )


def render_summary(kind: str, out_dir) -> str:
    from repro.cli import main

    run_campaign(summary_spec(kind), out_dir=out_dir)
    return _stdout(lambda: main(["campaign", "summarize", "--out", str(out_dir)]))


def parse_table(text: str):
    """``(title lines, headers, rows)`` of one ASCII table."""
    lines = text.splitlines()
    title = [line for line in lines if not line.startswith(("|", "+"))]
    cells = [
        [cell.strip() for cell in line[2:-2].split(" | ")]
        for line in lines
        if line.startswith("| ")
    ]
    return title, cells[0], cells[1:]


def write_golden() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name in COMMANDS:
        (GOLDEN_DIR / f"{name}.txt").write_text(render_command(name))
    (GOLDEN_DIR / "report.md").write_text(render_report())
    for kind in SUMMARY_SPECS:
        with tempfile.TemporaryDirectory() as out:
            text = render_summary(kind, Path(out) / "camp")
        (GOLDEN_DIR / f"summarize_{kind}.txt").write_text(text)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_output_matches_golden(name):
    assert render_command(name) == (GOLDEN_DIR / f"{name}.txt").read_text()


def test_report_matches_golden():
    assert render_report() == (GOLDEN_DIR / "report.md").read_text()


@pytest.mark.parametrize("kind", sorted(SUMMARY_SPECS))
def test_summary_keeps_every_golden_column(kind, tmp_path):
    golden_title, golden_headers, golden_rows = parse_table(
        (GOLDEN_DIR / f"summarize_{kind}.txt").read_text()
    )
    title, headers, rows = parse_table(render_summary(kind, tmp_path / "camp"))
    assert title == golden_title
    assert len(rows) == len(golden_rows) > 0
    for position, header in enumerate(golden_headers):
        assert header in headers, header
        column = headers.index(header)
        assert [row[column] for row in rows] == [
            row[position] for row in golden_rows
        ], header
