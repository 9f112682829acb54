"""Unit tests for the trace recorder."""

from repro.sim.trace import TraceRecorder


def make_recorder():
    trace = TraceRecorder()
    trace.emit(0.1, "fsm.transition", "ue0", edge="B")
    trace.emit(0.2, "rach.msg1", "ue0", result="heard")
    trace.emit(0.3, "fsm.transition", "ue1", edge="C")
    trace.emit(0.4, "fsm", "ue0")
    return trace


class TestEmit:
    def test_len(self):
        assert len(make_recorder()) == 4

    def test_event_fields(self):
        trace = TraceRecorder()
        trace.emit(1.5, "cat", "node", a=1, b="x")
        event = trace.events[0]
        assert event.time == 1.5
        assert event.category == "cat"
        assert event.node == "node"
        assert event.data == {"a": 1, "b": "x"}

    def test_disabled_records_nothing(self):
        trace = TraceRecorder(enabled=False)
        trace.emit(0.0, "cat", "node")
        assert len(trace) == 0

    def test_listener_invoked(self):
        trace = TraceRecorder()
        seen = []
        trace.subscribe(seen.append)
        trace.emit(0.0, "cat", "node")
        assert len(seen) == 1

    def test_multiple_listeners_all_invoked_in_order(self):
        trace = TraceRecorder()
        calls = []
        trace.subscribe(lambda e: calls.append(("a", e.category)))
        trace.subscribe(lambda e: calls.append(("b", e.category)))
        trace.emit(0.0, "cat", "node")
        assert calls == [("a", "cat"), ("b", "cat")]

    def test_listener_sees_full_event(self):
        trace = TraceRecorder()
        seen = []
        trace.subscribe(seen.append)
        trace.emit(1.25, "rach.msg1", "ue3", result="heard")
        event = seen[0]
        assert event.time == 1.25
        assert event.node == "ue3"
        assert event.data == {"result": "heard"}

    def test_disabled_skips_listeners(self):
        trace = TraceRecorder(enabled=False)
        seen = []
        trace.subscribe(seen.append)
        trace.emit(0.0, "cat", "node")
        assert seen == []
