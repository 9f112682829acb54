"""Tests for the declared ``REPRO_*`` switch table."""

import pytest

from repro.cli import main
from repro.util.switches import (
    SWITCHES,
    switch,
    switch_records,
    switch_value,
)


class TestTable:
    def test_declared_names(self):
        assert set(SWITCHES) == {
            "REPRO_CELL_INDEX",
            "REPRO_HEARTBEAT_S",
            "REPRO_STALL_S",
        }

    def test_defaults_are_legal_values(self):
        for declared in SWITCHES.values():
            if declared.values:
                assert declared.default in declared.values
            else:
                # Free-form switches must at least describe their domain.
                assert declared.hint
            assert declared.description

    def test_records_shape(self):
        records = switch_records()
        assert [record["name"] for record in records] == [
            declared.name for declared in SWITCHES.values()
        ]
        for record in records:
            assert {"name", "default", "values", "description",
                    "hint"} <= set(record)


class TestSwitchValue:
    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_CELL_INDEX", raising=False)
        assert switch_value("REPRO_CELL_INDEX") == "on"

    def test_reads_env_at_call_time(self, monkeypatch):
        monkeypatch.setenv("REPRO_CELL_INDEX", "off")
        assert switch_value("REPRO_CELL_INDEX") == "off"
        monkeypatch.setenv("REPRO_CELL_INDEX", "on")
        assert switch_value("REPRO_CELL_INDEX") == "on"

    def test_bad_value_is_loud(self, monkeypatch):
        monkeypatch.setenv("REPRO_CELL_INDEX", "maybe")
        with pytest.raises(ValueError, match="REPRO_CELL_INDEX"):
            switch_value("REPRO_CELL_INDEX")

    def test_free_form_switch_accepts_any_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_HEARTBEAT_S", "0.25")
        assert switch_value("REPRO_HEARTBEAT_S") == "0.25"

    def test_undeclared_name_is_loud(self):
        with pytest.raises(ValueError, match="REPRO_TURBO"):
            # repro: lint-waive[DET004]: probing the undeclared-name error
            switch("REPRO_TURBO")


class TestCli:
    def test_bad_switch_value_is_one_line_exit_two(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CELL_INDEX", "bogus")
        assert main(["fleet", "run", "--users", "2", "--duration", "0.5",
                     "--out", "/dev/null"]) == 2
        err = capsys.readouterr().err
        assert "REPRO_CELL_INDEX" in err
        assert "Traceback" not in err

    def test_list_switches(self, capsys):
        assert main(["list", "switches"]) == 0
        out = capsys.readouterr().out
        assert "REPRO_CELL_INDEX" in out
        assert "on|off" in out
        # Free-form monitor switches show their hint where enumerated
        # switches show the value set.
        assert "REPRO_HEARTBEAT_S" in out
        assert "REPRO_STALL_S" in out
        assert "seconds > 0" in out
        # Exactly the three declared switches, nothing else.
        listed = {
            line.split("|")[1].strip()
            for line in out.splitlines()
            if line.startswith("| REPRO_")
        }
        assert listed == {"REPRO_CELL_INDEX", "REPRO_HEARTBEAT_S",
                          "REPRO_STALL_S"}
