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

    def test_clear_keeps_listeners_subscribed(self):
        trace = TraceRecorder()
        seen = []
        trace.subscribe(seen.append)
        trace.emit(0.0, "cat", "node")
        trace.clear()
        trace.emit(0.1, "cat", "node")
        assert len(seen) == 2
        assert len(trace) == 1


class TestFilter:
    def test_exact_category(self):
        assert len(list(make_recorder().iter_filter(category="rach.msg1"))) == 1

    def test_prefix_matches_descendants(self):
        # 'fsm' matches 'fsm' and 'fsm.transition'.
        assert len(list(make_recorder().iter_filter(category="fsm"))) == 3

    def test_prefix_requires_dot_boundary(self):
        trace = TraceRecorder()
        trace.emit(0.0, "fsmx", "n")
        assert list(trace.iter_filter(category="fsm")) == []

    def test_by_node(self):
        assert len(list(make_recorder().iter_filter(node="ue1"))) == 1

    def test_time_window(self):
        assert len(list(make_recorder().iter_filter(since=0.2, until=0.3))) == 2

    def test_combined(self):
        events = list(make_recorder().iter_filter(category="fsm", node="ue0"))
        assert [e.time for e in events] == [0.1, 0.4]

    def test_count(self):
        assert make_recorder().count(category="fsm.transition") == 2

    def test_last(self):
        last = make_recorder().last(category="fsm.transition")
        assert last.time == 0.3

    def test_last_none_when_empty(self):
        assert TraceRecorder().last() is None

    def test_clear(self):
        trace = make_recorder()
        trace.clear()
        assert len(trace) == 0
