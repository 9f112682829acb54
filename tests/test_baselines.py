"""Tests for the baseline protocols (reactive hard handover, oracle)."""

import pytest

from repro.core.baselines import OracleTracker, ReactiveHandover
from repro.core.config import SilentTrackerConfig
from repro.experiments.scenarios import build_cell_edge_deployment
from repro.net.deployment import DeploymentConfig
from repro.net.handover import HandoverOutcome
from repro.phy.channel import ChannelConfig
from repro.registry import make_protocol

from channel_configs import DETERMINISTIC


def make_run(protocol, scenario="vehicular", seed=1, deterministic=True,
             config=None):
    deployment_config = DeploymentConfig(
        master_seed=seed,
        channel=DETERMINISTIC if deterministic else ChannelConfig(),
    )
    deployment, mobile = build_cell_edge_deployment(
        seed, scenario=scenario, config=deployment_config
    )
    instance = make_protocol(protocol, deployment, mobile, "cellA", config)
    return deployment, mobile, instance


class TestFactory:
    def test_builds_each_kind(self):
        _, _, a = make_run("silent-tracker")
        _, _, b = make_run("reactive")
        _, _, c = make_run("oracle")
        assert isinstance(b, ReactiveHandover)
        assert isinstance(c, OracleTracker)

    def test_unknown_rejected(self):
        deployment, mobile = build_cell_edge_deployment(1)
        with pytest.raises(ValueError):
            make_protocol("nope", deployment, mobile, "cellA")

    @pytest.mark.parametrize("protocol", ["silent-tracker", "reactive", "oracle"])
    def test_unknown_serving_cell_rejected(self, protocol):
        deployment, mobile = build_cell_edge_deployment(1)
        with pytest.raises(ValueError, match="unknown serving cell"):
            make_protocol(protocol, deployment, mobile, "nope")
        assert mobile.listener is None
        assert mobile.connection.serving_cell is None


class TestReactive:
    def test_ignores_neighbors_while_connected(self):
        deployment, mobile, reactive = make_run("reactive", scenario="walk")
        reactive.start()
        deployment.run(0.5)
        # No neighbor measurements at all: every cellB burst declined.
        assert deployment.metrics.counter("reactive.blind_search") == 0
        reactive.stop()

    def test_hard_handover_after_link_death(self):
        """Drive past the serving cell until it dies; the reactive mobile
        re-enters via blind search and a hard handover."""
        config = SilentTrackerConfig(rlf_timeout_s=0.1,
                                     context_loss_timeout_s=0.3)
        deployment, mobile, reactive = make_run(
            "reactive", scenario="vehicular", seed=2, config=config
        )
        reactive.start()
        deployment.run(6.0)
        reactive.stop()
        records = [
            r for r in reactive.handover_log.records if r.complete_s is not None
        ]
        assert records, "vehicular run must eventually reconnect"
        assert all(r.outcome is HandoverOutcome.HARD for r in records)
        assert mobile.connection.serving_cell is not None

    def test_interruption_includes_reentry_penalty(self):
        config = SilentTrackerConfig(rlf_timeout_s=0.1,
                                     context_loss_timeout_s=0.3,
                                     hard_reentry_penalty_s=0.1)
        deployment, mobile, reactive = make_run(
            "reactive", scenario="vehicular", seed=2, config=config
        )
        reactive.start()
        deployment.run(6.0)
        reactive.stop()
        record = next(
            r for r in reactive.handover_log.records if r.complete_s is not None
        )
        # At least context-loss timeout + penalty.
        assert record.interruption_s >= 0.3

    def test_cannot_start_twice(self):
        _, _, reactive = make_run("reactive")
        reactive.start()
        with pytest.raises(RuntimeError):
            reactive.start()


class TestOracle:
    def test_oracle_soft_handover(self):
        deployment, mobile, oracle = make_run("oracle", scenario="walk", seed=3)
        oracle.start()
        deployment.run(6.0)
        oracle.stop()
        records = [
            r for r in oracle.handover_log.records if r.complete_s is not None
        ]
        assert records
        assert records[0].outcome is HandoverOutcome.SOFT
        assert mobile.connection.serving_cell == "cellB"

    def test_oracle_interruption_minimal(self):
        deployment, _, oracle = make_run("oracle", scenario="walk", seed=3)
        oracle.start()
        deployment.run(6.0)
        record = next(
            r for r in oracle.handover_log.records if r.complete_s is not None
        )
        assert record.interruption_s < 0.1

    def test_oracle_serving_never_lost_on_walk(self):
        deployment, mobile, oracle = make_run("oracle", scenario="walk", seed=3)
        oracle.start()
        deployment.run(6.0)
        assert deployment.metrics.counter("connection.context_lost") == 0
