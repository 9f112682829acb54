"""Every protocol arm explains its handovers in the deployment trace.

The three arms share one access and context-switch implementation
(:class:`repro.core.arm.ProtocolArm`), so each one's random access and
context switch must show up in the trace the same way: one
``handover.complete`` event per completed :class:`HandoverRecord`, one
``handover.failed`` event per failed one, and the RACH's own messages.
"""

from collections import Counter

import pytest

from repro.experiments.scenarios import build_cell_edge_deployment
from repro.net.handover import HandoverOutcome
from repro.registry import make_protocol


@pytest.fixture(scope="module", params=["silent-tracker", "reactive", "oracle"])
def arm_run(request):
    """One vehicular drive-by (seed 1, 6 s) under each arm."""
    deployment, mobile = build_cell_edge_deployment(1, scenario="vehicular")
    protocol = make_protocol(request.param, deployment, mobile, "cellA")
    protocol.start()
    deployment.run(6.0)
    protocol.stop()
    return deployment, protocol


class TestTraceParity:
    def test_each_completed_record_has_one_complete_event(self, arm_run):
        deployment, protocol = arm_run
        completed = [
            r for r in protocol.handover_log.records if r.complete_s is not None
        ]
        assert completed, "the vehicular drive-by must hand over"
        events = [
            e for e in deployment.trace.events if e.category == "handover.complete"
        ]
        assert len(events) == len(completed)
        for record in completed:
            matches = [
                e
                for e in events
                if e.time == record.complete_s
                and e.data["target"] == record.target_cell
                and e.data["outcome"] == record.outcome.value
                and e.data["interruption_s"] == record.interruption_s
            ]
            assert len(matches) == 1, record

    def test_each_failed_record_has_one_failed_event(self, arm_run):
        deployment, protocol = arm_run
        records = protocol.handover_log.records
        failed = sum(1 for r in records if r.outcome is HandoverOutcome.FAILED)
        categories = Counter(e.category for e in deployment.trace.events)
        assert categories["handover.failed"] == failed

    def test_random_access_is_traced(self, arm_run):
        deployment, _ = arm_run
        assert any(e.category == "rach.msg1" for e in deployment.trace.events)

    def test_link_upkeep_events_match_counters(self, arm_run):
        deployment, _ = arm_run
        categories = Counter(e.category for e in deployment.trace.events)
        metrics = deployment.metrics
        assert categories["cabm.request"] == (
            metrics.counter("cabm.delivered") + metrics.counter("cabm.lost")
        )
        assert categories["connection.rlf"] == metrics.counter("connection.rlf")
        assert categories["connection.lost"] == metrics.counter(
            "connection.context_lost"
        )
