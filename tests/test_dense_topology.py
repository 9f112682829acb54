"""Dense corridor topology: builder, spec plumbing, byte equivalence.

Coalesced burst scheduling and the spatial cell index are execution
plans, not model changes: the corridor golden
(``tests/data/golden_fleet_corridor_c64.json``) must be reproduced with
``REPRO_CELL_INDEX`` on or off, and a corridor fleet must be
byte-identical sharded and in a fresh interpreter via the CLI.  The
spec layer must keep old street-topology identity hashes stable so
existing campaign artifacts still resume.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.harness import env_override
from repro.campaign.spec import canonical_json
from repro.experiments.scenarios import build_corridor_deployment
from repro.fleet import FleetSpec, UserProfile, run_fleet_trial
from repro.fleet.experiment import fleet_spec_for_cell
from repro.fleet.spec import nearest_cell_for

SRC = str(Path(__file__).resolve().parent.parent / "src")
GOLDEN_CORRIDOR = (
    Path(__file__).resolve().parent / "data" / "golden_fleet_corridor_c64.json"
)


def corridor_golden_spec():
    """The spec behind ``golden_fleet_corridor_c64.json``.

    32 users on a 64-cell corridor for 1 s.  It records no handovers:
    what it pins is coalesced scheduling, tick arbitration and spatial
    pruning.  Regenerate the golden with
    ``canonical_json(run_fleet_trial(corridor_golden_spec()).to_dict())``
    plus a trailing newline.
    """
    return FleetSpec(
        "golden-corridor",
        n_users=32,
        profiles=(
            UserProfile("walkers", weight=0.7, scenario="walk",
                        start_jitter_s=0.2),
            UserProfile("spinners", weight=0.3, scenario="rotation"),
        ),
        seed=17,
        duration_s=1.0,
        n_cells=64,
        topology="corridor",
    )


def corridor_spec(n_users=6, seed=17, duration_s=1.0, n_cells=12):
    return FleetSpec(
        "dense",
        n_users=n_users,
        profiles=(
            UserProfile("walkers", weight=0.7, scenario="walk",
                        start_jitter_s=0.2),
            UserProfile("spinners", weight=0.3, scenario="rotation"),
        ),
        seed=seed,
        duration_s=duration_s,
        n_cells=n_cells,
        topology="corridor",
    )


class TestCorridorBuilder:
    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError, match="at least 2 cells"):
            build_corridor_deployment(1, n_cells=1)
        with pytest.raises(ValueError, match="pitch must be positive"):
            build_corridor_deployment(1, n_cells=4, cell_pitch_m=0.0)
        with pytest.raises(ValueError, match="at least 1 phase slot"):
            build_corridor_deployment(1, n_cells=4, phase_slots=0)

    def test_rejects_integer_millisecond_phases(self):
        # phase_slots=10 puts half-slot phases on the millisecond
        # lattice (1 ms, 3 ms, ...), which can collide with protocol
        # events on a shared coalesced tick.
        with pytest.raises(ValueError, match="integer-millisecond"):
            build_corridor_deployment(1, n_cells=4, phase_slots=10)

    def test_station_layout(self):
        deployment = build_corridor_deployment(
            5, n_cells=8, cell_pitch_m=40.0
        )
        stations = list(deployment._stations.values())
        assert [s.cell_id for s in stations] == [
            f"cell{i:04d}" for i in range(8)
        ]
        for i, station in enumerate(stations):
            assert station.pose.position.x == pytest.approx(i * 40.0)
        # Eight stations, eight distinct SSB phases: at most one
        # station group per coalesced tick key, all sharing the period.
        phases = {s.schedule.phase_s for s in stations}
        assert len(phases) == 8


class TestSpecPlumbing:
    def test_street_identity_unchanged_by_new_fields(self):
        # The identity dict of a street spec must not mention the
        # corridor fields, or every pre-PR campaign hash changes and
        # resume breaks.
        spec = fleet_spec_for_cell(
            "uniform", scenario="walk", seed=3, n_users=4, duration_s=1.0
        )
        identity = spec.identity()
        assert "topology" not in identity
        assert "cell_pitch_m" not in identity

    def test_corridor_roundtrip(self):
        spec = corridor_spec()
        clone = FleetSpec.from_dict(spec.identity())
        assert clone.topology == "corridor"
        assert clone.n_cells == spec.n_cells
        assert clone.identity() == spec.identity()

    def test_rejects_unknown_topology(self):
        with pytest.raises(ValueError, match="unknown topology"):
            FleetSpec("bad", n_users=1, profiles=(
                UserProfile("w", scenario="walk"),
            ), seed=1, duration_s=1.0, topology="mesh")

    def test_rejects_single_cell_corridor(self):
        # Spec-level so the CLI turns `--cells 1` into `error: ...` +
        # exit 2 instead of a deployment-builder traceback.
        with pytest.raises(ValueError, match=">= 2 cells"):
            corridor_spec(n_cells=1)

    def test_nearest_cell_clamps_to_corridor(self):
        spec = corridor_spec(n_cells=12)
        assert nearest_cell_for(spec, -40.0) == "cell0000"
        assert nearest_cell_for(spec, 130.0) == "cell0003"
        assert nearest_cell_for(spec, 1e6) == "cell0011"

    def test_corridor_spec_spreads_spawn_region(self):
        spec = fleet_spec_for_cell(
            "uniform", scenario="walk", seed=3, n_users=4, duration_s=1.0,
            topology="corridor", n_cells=16,
        )
        spans = {profile.spawn_x for profile in spec.profiles}
        assert spans == {(0.0, 15 * 50.0)}


class TestEnvSwitchValidation:
    def test_bad_cell_index_value_raises(self):
        from repro.net.deployment import Deployment

        with env_override("REPRO_CELL_INDEX", "yes"):
            with pytest.raises(ValueError, match="REPRO_CELL_INDEX"):
                Deployment()


class TestCorridorGolden:
    """The corridor fleet reproduces its golden with the index on or off."""

    @pytest.mark.parametrize("index", ["on", "off"])
    def test_byte_identical(self, index):
        from repro.obs import Telemetry
        from repro.obs import telemetry as telemetry_mod

        with env_override("REPRO_CELL_INDEX", index), \
                telemetry_mod.use(Telemetry()) as hub:
            produced = canonical_json(
                run_fleet_trial(corridor_golden_spec()).to_dict()
            )
        assert (produced + "\n").encode("utf-8") == GOLDEN_CORRIDOR.read_bytes()
        # The index really prunes this corridor, so "on" is a real check.
        pruned = hub.counter("net.cell_index.pruned_links")
        assert (pruned > 0) is (index == "on")


class TestDenseEquivalenceMatrix:
    """Sharding and fresh interpreters never change a corridor byte."""

    @pytest.fixture(scope="class")
    def reference_bytes(self):
        return canonical_json(run_fleet_trial(corridor_spec()).to_dict())

    def test_sharded_corridor_byte_identical(self, reference_bytes, tmp_path):
        from repro.fleet import run_fleet_sharded

        result = run_fleet_sharded(corridor_spec(), 3, out_dir=tmp_path)
        assert canonical_json(result.merged.to_dict()) == reference_bytes

    def test_cli_fresh_process_matrix(self, tmp_path):
        """Fresh interpreters on the CLI corridor flags agree with the
        cell index on and off."""
        env_base = dict(os.environ)
        env_base["PYTHONPATH"] = SRC + (
            os.pathsep + env_base["PYTHONPATH"]
            if env_base.get("PYTHONPATH") else ""
        )
        flags = [
            "--users", "4", "--duration", "1.0", "--seed", "29",
            "--topology", "corridor", "--cells", "12",
        ]
        artifacts = {}
        for index in ("on", "off"):
            env = dict(env_base)
            env["REPRO_CELL_INDEX"] = index
            out = tmp_path / f"index-{index}.json"
            result = subprocess.run(
                [
                    sys.executable, "-m", "repro", "fleet", "run", *flags,
                    "--out", str(out), "--quiet",
                ],
                env=env, capture_output=True, text=True,
            )
            assert result.returncode == 0, result.stderr
            artifacts[index] = out.read_bytes()
        assert artifacts["on"] == artifacts["off"]


class TestObsTopEvents:
    def test_filter_summary_keeps_only_prefixed_rows(self):
        from repro.obs import filter_summary

        summary = {
            "spans": {
                "sim.event.ssb": {"count": 3, "total_s": 0.5},
                "fleet.run": {"count": 1, "total_s": 2.0},
            },
            "counters": {
                "sim.events.ssb.cellA": 3,
                "phy.bursts_measured": 9,
            },
        }
        filtered = filter_summary(summary, "sim.event.", "sim.events.")
        assert set(filtered["spans"]) == {"sim.event.ssb"}
        assert set(filtered["counters"]) == {"sim.events.ssb.cellA"}

    def test_cli_events_view(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "fleet.json"
        assert main(
            [
                "fleet", "run", "--users", "2", "--duration", "0.5",
                "--telemetry", "--quiet", "--out", str(out),
            ]
        ) == 0
        sidecar = tmp_path / "fleet.telemetry.json"
        assert sidecar.exists()
        capsys.readouterr()
        assert main(["obs", "top", str(sidecar), "--events"]) == 0
        printed = capsys.readouterr().out
        assert "hottest event spans" in printed
        assert "sim.event." in printed
        # The engine view hides the non-engine rows entirely.
        assert "fleet.run" not in printed
