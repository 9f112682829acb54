"""Tests for the plugin registries and their wiring into campaigns.

Covers the registry mechanics (round-trip, duplicate protection, rich
unknown-name errors), a third-party toy protocol/scenario registered
in-test and run end-to-end through the Session API and a campaign grid,
and byte-identity of campaign cell artifacts against goldens captured
at the pre-registry commit.
"""

import json
from pathlib import Path

import pytest

from repro.campaign.runner import decode_payload, run_campaign
from repro.campaign.spec import CampaignSpec, SpecError
from repro.registry import (
    CODEBOOKS,
    EXPERIMENTS,
    PROTOCOLS,
    SCENARIOS,
    DuplicateNameError,
    Registry,
    RegistryError,
    UnknownNameError,
    register_protocol,
    register_scenario,
)

DATA_DIR = Path(__file__).resolve().parent / "data"


class TestRegistryMechanics:
    def test_register_lookup_names_roundtrip(self):
        registry = Registry("widget")
        registry.register("a", 1)
        registry.register("b", 2)
        assert registry.get("a") == 1
        assert registry["b"] == 2
        assert registry.names() == ("a", "b")
        assert "a" in registry
        assert len(registry) == 2
        assert dict(registry.items()) == {"a": 1, "b": 2}

    def test_decorator_form(self):
        registry = Registry("widget")

        @registry.register("fn")
        def factory():
            return 42

        assert registry.get("fn") is factory

    def test_unknown_name_lists_choices(self):
        registry = Registry("widget")
        registry.register("beta", 2)
        registry.register("alpha", 1)
        with pytest.raises(UnknownNameError) as excinfo:
            registry.get("gamma")
        assert str(excinfo.value) == "unknown widget 'gamma'; known: alpha, beta"

    def test_duplicate_rejected_without_override(self):
        registry = Registry("widget")
        registry.register("a", 1)
        with pytest.raises(DuplicateNameError, match="override=True"):
            registry.register("a", 2)
        assert registry.get("a") == 1
        registry.register("a", 2, override=True)
        assert registry.get("a") == 2

    def test_unregister(self):
        registry = Registry("widget")
        registry.register("a", 1)
        assert registry.unregister("a") == 1
        with pytest.raises(UnknownNameError):
            registry.unregister("a")

    def test_bad_name_rejected(self):
        registry = Registry("widget")
        with pytest.raises(RegistryError):
            registry.register("", 1)
        with pytest.raises(RegistryError):
            registry.register(3, 1)

    def test_errors_are_value_errors(self):
        # Call sites that predate the registries catch ValueError.
        assert issubclass(RegistryError, ValueError)
        assert issubclass(UnknownNameError, RegistryError)
        assert issubclass(DuplicateNameError, RegistryError)

    def test_plugin_claiming_builtin_name_collides_at_registration(self):
        # In a fresh interpreter (builtins not yet loaded), registering
        # a builtin name must fail right away at the plugin's own
        # registration — not later, mid-builtin-import, on the first
        # lookup — and must leave the registry fully usable.
        import os
        import subprocess
        import sys

        code = (
            "from repro.registry import register_protocol, DuplicateNameError\n"
            "try:\n"
            "    @register_protocol('oracle')\n"
            "    def build(d, m, s, config=None):\n"
            "        return None\n"
            "except DuplicateNameError:\n"
            "    print('collided-at-registration')\n"
            "from repro.registry import PROTOCOLS\n"
            "assert callable(PROTOCOLS.get('silent-tracker'))\n"
            "print('registry-usable')\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "collided-at-registration" in proc.stdout
        assert "registry-usable" in proc.stdout


class TestBuiltinRegistries:
    def test_builtin_names(self):
        assert set(PROTOCOLS.names()) >= {"silent-tracker", "reactive", "oracle"}
        assert SCENARIOS.names()[:3] == ("walk", "rotation", "vehicular")
        assert set(CODEBOOKS.names()) >= {"narrow", "wide", "omni"}
        assert set(EXPERIMENTS.names()) >= {
            "search",
            "tracking",
            "comparison",
            "workload",
            "hierarchical",
            "pingpong",
        }

    def test_unknown_protocol_error_message(self):
        with pytest.raises(UnknownNameError) as excinfo:
            PROTOCOLS.get("oracel")
        message = str(excinfo.value)
        assert message.startswith("unknown protocol 'oracel'; known: ")
        assert "oracle, reactive, silent-tracker" in message

    def test_scenario_defs_complete(self):
        for name in SCENARIOS.names():
            scenario = SCENARIOS.get(name)
            assert scenario.duration_s > 0
            trajectory = scenario.make_trajectory()
            assert trajectory.pose_at(0.0).position is not None

    def test_experiment_defs_declare_axes(self):
        for name in EXPERIMENTS.names():
            kind = EXPERIMENTS.get(name)
            valid = kind.protocol_names()
            assert valid, f"{name} declares no protocol-axis values"
            for arm in kind.default_protocols:
                assert arm in valid


# ------------------------------------------------------------- toy plugins
class SilentProtocol:
    """Minimal registered arm: listen on beam 0, count bursts, never
    hand over.  (The fuller worked example, with a real serving-cell
    attach, lives in examples/custom_plugin.py.)"""

    def __init__(self, deployment, mobile, serving_cell):
        from repro.net.handover import HandoverLog

        self.handover_log = HandoverLog()
        self.started = False
        self.stopped = False
        self.measurements = 0
        mobile.attach_listener(self)

    def start(self):
        self.started = True

    def stop(self):
        self.stopped = True

    def choose_rx_beam(self, cell_id, now_s):
        return 0

    def on_measurement(self, measurement):
        self.measurements += 1


@pytest.fixture()
def toy_protocol():
    @register_protocol("toy-silent")
    def _build(deployment, mobile, serving_cell, config=None):
        return SilentProtocol(deployment, mobile, serving_cell)

    yield "toy-silent"
    PROTOCOLS.unregister("toy-silent")


@pytest.fixture()
def toy_scenario():
    from repro.geometry.vectors import Vec3
    from repro.mobility.walk import HumanWalk

    @register_scenario(
        "toy-amble",
        duration_s=2.0,
        default_start_x=9.0,
        description="slow walk for plugin tests",
    )
    def _build(rng, start_x):
        return HumanWalk(Vec3(start_x, 0.0), Vec3(0.7, 0.0), rng=rng)

    yield "toy-amble"
    SCENARIOS.unregister("toy-amble")


class TestThirdPartyPlugins:
    def test_toy_protocol_through_session(self, toy_protocol, toy_scenario):
        from repro.api import Session, TrialSpec

        spec = TrialSpec(
            scenario=toy_scenario, protocol=toy_protocol, seed=3
        )
        with Session(spec) as session:
            protocol = session.attach_protocol()
            session.run()
        assert protocol.started
        assert protocol.stopped
        assert protocol.measurements > 0
        assert session.elapsed_s == pytest.approx(2.0)

    def test_toy_protocol_through_campaign_grid(
        self, toy_protocol, toy_scenario
    ):
        spec = CampaignSpec(
            name="plugin-grid",
            experiment="comparison",
            scenarios=(toy_scenario,),
            protocols=(toy_protocol, "oracle"),
            seeds=2,
            base_seed=50,
        )
        result = run_campaign(spec)
        assert len(result.payloads) == 4
        trials = [
            decode_payload(cell.experiment, payload)
            for cell, payload in result.results_in_order()
        ]
        assert {t.protocol for t in trials} == {toy_protocol, "oracle"}
        # The toy protocol never hands over, by construction.
        assert all(
            t.handovers_completed == 0
            for t in trials
            if t.protocol == toy_protocol
        )

    def test_unregistered_arms_rejected_after_teardown(self):
        with pytest.raises(SpecError):
            CampaignSpec(
                name="gone",
                experiment="comparison",
                scenarios=("walk",),
                protocols=("toy-silent",),
                seeds=1,
            )


class TestArtifactGoldens:
    """Campaign cell artifacts must be byte-identical to the files
    captured by running the same specs at the pre-registry commit."""

    @pytest.mark.parametrize(
        "golden,spec_kwargs",
        [
            (
                "golden_cell_search.json",
                dict(
                    experiment="search",
                    scenarios=("walk",),
                    protocols=("narrow",),
                    seeds=1,
                    base_seed=100,
                    params={"deadline_s": 0.5},
                ),
            ),
            (
                "golden_cell_tracking.json",
                dict(
                    experiment="tracking",
                    scenarios=("vehicular",),
                    protocols=("narrow",),
                    seeds=1,
                    base_seed=200,
                ),
            ),
        ],
    )
    def test_cell_artifact_byte_identical(self, tmp_path, golden, spec_kwargs):
        spec = CampaignSpec(name="golden-check", **spec_kwargs)
        run_campaign(spec, out_dir=tmp_path)
        (cell,) = spec.expand()
        produced = (tmp_path / "cells" / f"{cell.cell_id}.json").read_bytes()
        expected = (DATA_DIR / golden).read_bytes()
        assert json.loads(produced)  # sanity: artifact parses
        assert produced == expected


class TestListCli:
    def test_list_human(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for section in ("protocols", "scenarios", "codebooks", "experiments"):
            assert section in output
        assert "silent-tracker" in output
        assert "vehicular" in output

    def test_list_single_registry_json(self, capsys):
        from repro.cli import main

        assert main(["list", "protocols", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"protocols"}
        names = [entry["name"] for entry in payload["protocols"]]
        assert {"silent-tracker", "reactive", "oracle"} <= set(names)

    def test_list_json_all_sections(self, capsys):
        from repro.cli import main

        assert main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "protocols",
            "scenarios",
            "codebooks",
            "experiments",
            "switches",
        }
        switches = {s["name"]: s for s in payload["switches"]}
        assert set(switches) == {
            "REPRO_CELL_INDEX", "REPRO_HEARTBEAT_S", "REPRO_STALL_S",
        }
        assert switches["REPRO_CELL_INDEX"]["default"] == "on"
        experiments = {e["name"]: e for e in payload["experiments"]}
        assert experiments["comparison"]["protocol_axis"] == "protocol"
        assert "silent-tracker" in experiments["comparison"]["protocols"]

    def test_unknown_arm_exits_2(self, capsys):
        from repro.cli import main

        code = main(
            [
                "campaign",
                "run",
                "--experiment",
                "comparison",
                "--scenarios",
                "walk",
                "--protocols",
                "oracel",
                "--seeds",
                "1",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "oracel" in err
        assert "oracle, reactive, silent-tracker" in err
