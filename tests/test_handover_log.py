"""Unit tests for handover records and log."""

import pytest

from repro.net.handover import HandoverLog, HandoverOutcome, HandoverRecord


class TestRecord:
    def test_completion_time(self):
        record = HandoverRecord("ue0", "cellA", "cellB", trigger_s=1.0)
        assert record.completion_time_s is None
        record.complete_s = 1.4
        assert record.completion_time_s == pytest.approx(0.4)


class TestLog:
    def make_log(self):
        log = HandoverLog()
        soft = log.open_record("ue0", "cellA", "cellB", 1.0)
        soft.complete_s = 1.5
        soft.outcome = HandoverOutcome.SOFT
        hard = log.open_record("ue0", "cellB", "cellC", 5.0)
        hard.complete_s = 7.0
        hard.outcome = HandoverOutcome.HARD
        failed = log.open_record("ue0", "cellC", "cellA", 9.0)
        failed.outcome = HandoverOutcome.FAILED
        return log

    def test_counts(self):
        log = self.make_log()
        assert len(log) == 3
        for outcome in HandoverOutcome:
            assert sum(1 for r in log.records if r.outcome is outcome) == 1

    def test_records_copy(self):
        log = self.make_log()
        records = log.records
        records.clear()
        assert len(log) == 3
