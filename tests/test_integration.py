"""Cross-module integration tests: full protocol runs with invariants
checked against the trace."""

import pytest

from repro.core.config import SilentTrackerConfig
from repro.core.silent_tracker import SilentTracker
from repro.experiments.scenarios import build_cell_edge_deployment
from repro.net.handover import HandoverOutcome


def of_category(deployment, category):
    return [e for e in deployment.trace.events if e.category == category]


def full_run(scenario, seed, duration_s=6.0, config=None):
    deployment, mobile = build_cell_edge_deployment(seed, scenario=scenario)
    tracker = SilentTracker(deployment, mobile, "cellA", config)
    tracker.start()
    deployment.run(duration_s)
    tracker.stop()
    return deployment, mobile, tracker


class TestTraceInvariants:
    @pytest.fixture(scope="class")
    def run(self):
        return full_run("walk", seed=3)

    def test_edge_c_preceded_by_edge_b(self, run):
        deployment, _, _ = run
        events = of_category(deployment, "fsm.neighbor")
        first_b = next(e.time for e in events if e.data["edge"] == "B")
        first_c = next(e.time for e in events if e.data["edge"] == "C")
        assert first_b <= first_c

    def test_handover_trigger_before_complete(self, run):
        deployment, _, _ = run
        triggers = of_category(deployment, "handover.trigger")
        completes = of_category(deployment, "handover.complete")
        assert triggers and completes
        assert triggers[-1].time <= completes[-1].time

    def test_rach_messages_ordered(self, run):
        deployment, _, _ = run
        msg1 = of_category(deployment, "rach.msg1")
        msg4 = of_category(deployment, "rach.msg4")
        assert msg1 and msg4
        assert msg1[0].time < msg4[-1].time

    def test_exactly_one_mobile_in_trace(self, run):
        deployment, _, _ = run
        nodes = {e.node for e in deployment.trace.events}
        assert nodes == {"ue0"}


class TestAttachmentInvariant:
    def test_at_most_one_serving_attachment(self):
        """At every handover boundary the mobile is attached to exactly
        the serving station."""
        deployment, mobile, tracker = full_run("walk", seed=3)
        attached = [
            s.cell_id for s in deployment.stations if s.is_attached("ue0")
        ]
        serving = mobile.connection.serving_cell
        if serving is None:
            assert attached == []
        else:
            assert attached == [serving]


class TestMeasurementBudget:
    def test_single_rf_chain_respected(self):
        """Staggered phases mean no skips; the mobile never measures two
        overlapping bursts."""
        deployment, mobile, _ = full_run("walk", seed=3, duration_s=2.0)
        assert mobile.bursts_skipped_busy == 0
        assert mobile.bursts_measured > 0

    def test_declines_tracked_but_unneeded_cells(self):
        """While focused on one neighbor, other cells' bursts are declined
        (measurement budget discipline)."""
        deployment, mobile, _ = full_run("walk", seed=3, duration_s=2.0)
        assert mobile.bursts_declined > 0


class TestMultipleHandoProtocols:
    def test_back_to_back_handovers_on_long_walk(self):
        """Walking the full street (A -> B -> C) yields two handovers."""
        deployment, mobile = build_cell_edge_deployment(
            11, scenario="walk", start_x=8.0
        )
        tracker = SilentTracker(deployment, mobile, "cellA")
        tracker.start()
        deployment.run(18.0)  # 1.4 m/s * 18 s = ~25 m of street
        tracker.stop()
        completed = [
            r for r in tracker.handover_log.records if r.complete_s is not None
        ]
        assert len(completed) >= 1
        targets = [r.target_cell for r in completed]
        assert targets[0] == "cellB"

    def test_interruption_lower_for_soft(self):
        deployment, mobile, tracker = full_run("walk", seed=3)
        softs = [
            r
            for r in tracker.handover_log.records
            if r.outcome is HandoverOutcome.SOFT
        ]
        for record in softs:
            assert record.interruption_s < 0.5


class TestConfigSensitivity:
    def test_tight_rlf_still_works_on_walk(self):
        config = SilentTrackerConfig(rlf_timeout_s=0.06,
                                     context_loss_timeout_s=0.3)
        _, mobile, tracker = full_run("walk", seed=3, config=config)
        completed = [
            r for r in tracker.handover_log.records if r.complete_s is not None
        ]
        assert completed

    def test_zero_margin_hands_over_earlier(self):
        eager_config = SilentTrackerConfig(handover_margin_db=0.5,
                                           handover_hysteresis_db=0.5)
        lazy_config = SilentTrackerConfig(handover_margin_db=8.0,
                                          handover_hysteresis_db=1.0)
        _, _, eager = full_run("walk", seed=3, config=eager_config,
                               duration_s=8.0)
        _, _, lazy = full_run("walk", seed=3, config=lazy_config,
                              duration_s=8.0)
        eager_first = min(
            (r.trigger_s for r in eager.handover_log.records), default=None
        )
        lazy_first = min(
            (r.trigger_s for r in lazy.handover_log.records), default=None
        )
        assert eager_first is not None
        if lazy_first is not None:
            assert eager_first <= lazy_first
