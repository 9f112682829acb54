"""Golden pin of the three protocol arms: a comparison campaign.

Silent Tracker, the reactive baseline and the oracle each run the walk,
rotation and vehicular scenarios over two paired seeds.  The committed
golden holds the cell artifacts of :func:`golden_spec` concatenated in
``spec.expand()`` order -- each artifact is one JSON line, so the file
is JSON Lines.  Regenerate it with::

    PYTHONPATH=src python -c "import tests.test_comparison_golden as t; \
t.write_golden()"

The campaign must reproduce those bytes serially.
"""

import json
import tempfile
from pathlib import Path

from repro.campaign.runner import run_campaign
from repro.campaign.spec import CampaignSpec

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_campaign_comparison.jsonl"
ARMS = ("silent-tracker", "reactive", "oracle")
SCENARIOS = ("walk", "rotation", "vehicular")


def golden_spec() -> CampaignSpec:
    """Walk, rotation and vehicular x the three arms x 2 seeds."""
    return CampaignSpec(
        name="golden-comparison",
        experiment="comparison",
        scenarios=SCENARIOS,
        protocols=ARMS,
        seeds=2,
        base_seed=700,
    )


def campaign_bytes(out_dir) -> bytes:
    """Run the golden spec serially into ``out_dir``; its cell artifacts, joined."""
    spec = golden_spec()
    run_campaign(spec, out_dir=out_dir, workers=1)
    cells = Path(out_dir) / "cells"
    expected_names = sorted(f"{cell.cell_id}.json" for cell in spec.expand())
    assert sorted(p.name for p in cells.iterdir()) == expected_names
    return b"".join(
        (cells / f"{cell.cell_id}.json").read_bytes() for cell in spec.expand()
    )


def write_golden() -> None:
    with tempfile.TemporaryDirectory() as out:
        GOLDEN.write_bytes(campaign_bytes(out))


class TestComparisonGolden:
    def test_golden_covers_every_arm_and_scenario(self):
        artifacts = [json.loads(line) for line in GOLDEN.read_bytes().splitlines()]
        assert len(artifacts) == len(golden_spec().expand()) == 18
        pairs = sorted(
            (a["cell"]["scenario"], a["cell"]["protocol"]) for a in artifacts
        )
        assert pairs == sorted(
            [(scenario, arm) for scenario in SCENARIOS for arm in ARMS] * 2
        )

    def test_every_arm_completes_a_handover(self):
        # A golden where an arm never hands over would pin nothing of
        # its access and context-switch path.
        artifacts = [json.loads(line) for line in GOLDEN.read_bytes().splitlines()]
        for arm in ARMS:
            assert any(
                a["payload"]["handovers_completed"] > 0
                for a in artifacts
                if a["cell"]["protocol"] == arm
            ), arm

    def test_campaign_bytes_match_golden(self, tmp_path):
        assert campaign_bytes(tmp_path) == GOLDEN.read_bytes()
