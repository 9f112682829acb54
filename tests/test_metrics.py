"""Unit tests for the metrics recorder."""

from repro.sim.metrics import MetricsRecorder


class TestCounters:
    def test_default_zero(self):
        assert MetricsRecorder().counter("x") == 0

    def test_increment(self):
        metrics = MetricsRecorder()
        metrics.incr("x")
        metrics.incr("x", 4)
        assert metrics.counter("x") == 5

    def test_counters_view_is_a_copy(self):
        metrics = MetricsRecorder()
        metrics.incr("x", 2)
        view = metrics.counters()
        view["x"] = 99
        view["new"] = 1
        assert metrics.counter("x") == 2
        assert metrics.counter("new") == 0
