"""Golden pin of the one-mobile burst path: a Fig. 2c tracking campaign.

Each tracking cell is a single mobile dwelling on the SSB bursts of the
street's three cells, so every burst goes through the single-link
delivery branch (``Deployment._deliver_burst_single`` ->
``LinkEngine.measure_burst``).  The committed golden holds the cell
artifacts of :func:`golden_spec` concatenated in ``spec.expand()``
order -- each artifact is one JSON line, so the file is JSON Lines.
Regenerate it with::

    PYTHONPATH=src python -c "import tests.test_tracking_golden as t; \
t.write_golden()"

The campaign must reproduce those bytes serially and on the worker
pool.
"""

import json
import tempfile
from pathlib import Path

import pytest

from repro.campaign.runner import run_campaign
from repro.experiments.fig2c import fig2c_spec

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_campaign_tracking.jsonl"


def golden_spec():
    """Walk, rotation and vehicular x 2 seeds of the Fig. 2c sweep."""
    return fig2c_spec(n_trials=2, name="golden-tracking")


def campaign_bytes(out_dir, workers: int) -> bytes:
    """Run the golden spec into ``out_dir``; its cell artifacts, joined."""
    spec = golden_spec()
    run_campaign(spec, out_dir=out_dir, workers=workers)
    cells = Path(out_dir) / "cells"
    expected_names = sorted(f"{cell.cell_id}.json" for cell in spec.expand())
    assert sorted(p.name for p in cells.iterdir()) == expected_names
    return b"".join(
        (cells / f"{cell.cell_id}.json").read_bytes() for cell in spec.expand()
    )


def write_golden() -> None:
    with tempfile.TemporaryDirectory() as out:
        GOLDEN.write_bytes(campaign_bytes(out, workers=1))


class TestTrackingGolden:
    def test_golden_covers_every_scenario(self):
        artifacts = [json.loads(line) for line in GOLDEN.read_bytes().splitlines()]
        assert len(artifacts) == len(golden_spec().expand()) == 6
        assert sorted(a["cell"]["scenario"] for a in artifacts) == sorted(
            ["walk", "rotation", "vehicular"] * 2
        )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_campaign_bytes_match_golden(self, tmp_path, workers):
        assert campaign_bytes(tmp_path, workers) == GOLDEN.read_bytes()
