"""Unit tests for the connection context."""

import pytest

from repro.net.connection import ConnectionContext, ConnectionState


class TestLifecycle:
    def test_starts_idle(self):
        connection = ConnectionContext()
        assert connection.state is ConnectionState.IDLE
        assert not connection.connected
        assert connection.serving_cell is None

    def test_establish(self):
        connection = ConnectionContext()
        connection.establish("cellA", 3, now_s=1.0)
        assert connection.connected
        assert connection.serving_cell == "cellA"
        assert connection.rx_beam == 3
        assert connection.established_s == 1.0

    def test_touch_updates_contact(self):
        connection = ConnectionContext()
        connection.establish("cellA", 3, now_s=1.0)
        connection.touch(2.5)
        assert connection.last_contact_s == 2.5
        assert connection.silence_s(3.0) == pytest.approx(0.5)

    def test_touch_idle_raises(self):
        with pytest.raises(RuntimeError):
            ConnectionContext().touch(1.0)

    def test_rlf_then_recovery(self):
        connection = ConnectionContext()
        connection.establish("cellA", 3, now_s=0.0)
        connection.declare_rlf()
        assert connection.state is ConnectionState.RLF
        assert not connection.connected
        connection.touch(1.0)  # contact during guard re-establishes
        assert connection.connected

    def test_rlf_from_idle_ignored(self):
        connection = ConnectionContext()
        connection.declare_rlf()
        assert connection.state is ConnectionState.IDLE

    def test_drop_loses_everything(self):
        connection = ConnectionContext()
        connection.establish("cellA", 3, now_s=0.0)
        connection.drop()
        assert connection.state is ConnectionState.IDLE
        assert connection.serving_cell is None
        assert connection.rx_beam is None

    def test_age(self):
        connection = ConnectionContext()
        connection.establish("cellA", 3, now_s=2.0)
        assert connection.established_s == 2.0

    def test_reestablish_resets_age(self):
        connection = ConnectionContext()
        connection.establish("cellA", 3, now_s=0.0)
        connection.establish("cellB", 1, now_s=4.0)
        assert connection.serving_cell == "cellB"
        assert connection.established_s == 4.0
