"""Tests for the typed session API (TrialSpec / Session / TrialResult)."""

import pytest

from repro.api import (
    Session,
    SessionError,
    TrialResult,
    TrialSpec,
    run_trial,
)
from repro.registry import PROTOCOLS, UnknownNameError, register_protocol


class TestTrialSpec:
    def test_defaults_validate(self):
        spec = TrialSpec()
        assert spec.scenario == "walk"
        assert spec.resolved_duration_s == 10.0  # walk's registered default

    def test_duration_override_wins(self):
        assert TrialSpec(duration_s=0.5).resolved_duration_s == 0.5

    def test_unknown_axes_rejected_at_construction(self):
        with pytest.raises(UnknownNameError, match="unknown scenario"):
            TrialSpec(scenario="swimming")
        with pytest.raises(UnknownNameError, match="unknown codebook"):
            TrialSpec(codebook="laser")
        with pytest.raises(UnknownNameError, match="unknown protocol"):
            TrialSpec(protocol="oracel")

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            TrialSpec(duration_s=-1.0)

    @pytest.mark.parametrize("duration_s", [float("nan"), float("inf")])
    def test_non_finite_duration_rejected(self, duration_s):
        # run_until(nan) never reaches its end, so a nan trial would hang.
        with pytest.raises(ValueError, match="finite"):
            TrialSpec(duration_s=duration_s)


class TestSessionLifecycle:
    def test_builds_deployment_from_spec(self):
        with Session(TrialSpec(scenario="walk", seed=5, n_cells=2)) as session:
            assert len(session.deployment.stations) == 2
            assert session.mobile.mobile_id == "ue0"

    def test_kwargs_shorthand(self):
        with Session(scenario="vehicular", seed=2) as session:
            assert session.spec.scenario == "vehicular"
        with pytest.raises(TypeError):
            Session(TrialSpec(), scenario="walk")

    def test_attach_and_run(self):
        with Session(TrialSpec(protocol="silent-tracker", seed=3)) as session:
            protocol = session.attach_protocol()
            ran = session.run(0.5)
        assert ran == 0.5
        assert session.elapsed_s == 0.5
        assert protocol is session.protocol

    def test_attach_twice_rejected(self):
        with Session(TrialSpec(protocol="oracle")) as session:
            session.attach_protocol()
            with pytest.raises(SessionError):
                session.attach_protocol("reactive")

    def test_attach_without_name_rejected(self):
        with Session(TrialSpec()) as session:
            with pytest.raises(SessionError):
                session.attach_protocol()

    def test_closed_session_rejects_use(self):
        session = Session(TrialSpec())
        session.close()
        with pytest.raises(SessionError):
            session.run(0.1)
        with pytest.raises(SessionError):
            session.attach_protocol("oracle")

    def test_protocol_stopped_on_exception(self):
        calls = []

        class Recorder:
            def __init__(self, deployment, mobile, serving_cell):
                self.handover_log = None

            def start(self):
                calls.append("start")

            def stop(self):
                calls.append("stop")

        @register_protocol("recorder")
        def _build(deployment, mobile, serving_cell, config=None):
            return Recorder(deployment, mobile, serving_cell)

        try:
            with pytest.raises(RuntimeError, match="trial body exploded"):
                with Session(TrialSpec(protocol="recorder")) as session:
                    session.attach_protocol()
                    session.run(0.1)
                    raise RuntimeError("trial body exploded")
            assert calls == ["start", "stop"]
        finally:
            PROTOCOLS.unregister("recorder")

    def test_unstarted_protocol_stopped_not_started(self):
        calls = []

        class Recorder:
            def __init__(self):
                self.handover_log = None

            def start(self):
                calls.append("start")

            def stop(self):
                calls.append("stop")

        @register_protocol("recorder2")
        def _build(deployment, mobile, serving_cell, config=None):
            return Recorder()

        try:
            with Session(TrialSpec(protocol="recorder2")) as session:
                session.attach_protocol()
                # never run: close() stops the arm once, never starts it
            assert calls == ["stop"]
        finally:
            PROTOCOLS.unregister("recorder2")

    def test_close_idempotent(self):
        session = Session(TrialSpec())
        session.close()
        session.close()


class TestRunTrial:
    def test_search_kind(self):
        result = run_trial(
            "search",
            scenario="walk",
            codebook="narrow",
            seed=100,
            params={"deadline_s": 0.5},
        )
        assert isinstance(result, TrialResult)
        assert result.experiment == "search"
        assert result.codebook == "narrow"
        assert result.payload.codebook == "narrow"
        assert result.payload.seed == 100

    def test_matches_direct_trial_function(self):
        from repro.experiments.fig2a import run_search_trial

        via_api = run_trial(
            "search", scenario="walk", seed=100, params={"deadline_s": 0.5}
        )
        direct = run_search_trial("narrow", scenario="walk", seed=100,
                                  deadline_s=0.5)
        assert via_api.payload == direct

    def test_comparison_kind_uses_protocol_axis(self):
        result = run_trial(
            "comparison",
            scenario="vehicular",
            protocol="oracle",
            seed=7,
            duration_s=1.0,
        )
        assert result.protocol == "oracle"
        assert result.payload.protocol == "oracle"

    def test_unknown_experiment_rejected(self):
        with pytest.raises(UnknownNameError, match="unknown experiment"):
            run_trial("quantum")

    def test_unknown_arm_rejected(self):
        with pytest.raises(UnknownNameError, match="known:"):
            run_trial("hierarchical", arm="psychic")

    def test_custom_axis_requires_explicit_arm(self):
        from repro.registry import RegistryError

        with pytest.raises(RegistryError, match="explicit arm="):
            run_trial("workload")

    def test_duration_maps_to_kind_param(self):
        # `search` reads its length from params["deadline_s"]: the spec
        # duration must actually bound the trial, not just be reported.
        from repro.experiments.fig2a import run_search_trial

        via_api = run_trial("search", scenario="walk", seed=100,
                            duration_s=0.5)
        direct = run_search_trial("narrow", scenario="walk", seed=100,
                                  deadline_s=0.5)
        assert via_api.payload == direct
        assert via_api.duration_s == 0.5

    def test_codebook_honored_on_protocol_axis_kinds(self):
        from repro.experiments.comparison import run_comparison_trial

        via_api = run_trial("comparison", scenario="vehicular",
                            protocol="oracle", codebook="wide", seed=7,
                            duration_s=1.0)
        direct = run_comparison_trial("oracle", "vehicular", seed=7,
                                      codebook="wide", duration_s=1.0)
        assert via_api.codebook == "wide"
        assert via_api.payload == direct

    def test_unhonorable_spec_fields_rejected(self):
        from repro.registry import RegistryError

        # search ignores configs and the deployment knobs — silently
        # dropping them would make the envelope lie.
        from repro.core.config import SilentTrackerConfig

        with pytest.raises(RegistryError, match="config"):
            run_trial("search", scenario="walk",
                      config=SilentTrackerConfig())
        with pytest.raises(RegistryError, match="start_x"):
            run_trial("search", scenario="walk", start_x=3.0)
        with pytest.raises(RegistryError, match="n_cells"):
            run_trial("search", scenario="walk", n_cells=2)
        with pytest.raises(RegistryError, match="codebook"):
            run_trial("workload", arm="best", codebook="wide")

    def test_to_dict_flattens_payload(self):
        result = run_trial(
            "search", scenario="walk", seed=100, params={"deadline_s": 0.5}
        )
        record = result.to_dict()
        assert record["experiment"] == "search"
        assert isinstance(record["payload"], dict)
        assert record["payload"]["seed"] == 100
