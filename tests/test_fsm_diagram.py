"""Tests for the Fig. 2b diagram module."""

import pytest

from repro.core.events import Fig2bEdge
from repro.core.fsm_diagram import (
    FIG2B_GUARDS,
    FIG2B_STATES,
    FIG2B_TOPOLOGY,
    render_ascii,
    render_dot,
    validate_topology,
)


class TestTopology:
    def test_validates_clean(self):
        validate_topology()

    def test_every_enum_edge_present(self):
        assert {e.value for e in Fig2bEdge} == set(FIG2B_TOPOLOGY)

    def test_all_states_referenced(self):
        referenced = set()
        for src, dst in FIG2B_TOPOLOGY.values():
            referenced.add(src)
            referenced.add(dst)
        assert referenced == set(FIG2B_STATES)

    def test_paper_semantics(self):
        """Spot-check the figure: E leaves N-RBA (handover), H self-loops."""
        assert FIG2B_TOPOLOGY["E"][0] == "N-RBA"
        assert FIG2B_TOPOLOGY["H"] == ("N-RBA", "N-RBA")
        assert FIG2B_TOPOLOGY["A"] == ("EO", "EO")
        assert FIG2B_TOPOLOGY["G"] == ("S-RBA", "CABM")


class TestRendering:
    def test_dot_contains_all_states_and_edges(self):
        dot = render_dot()
        for state in FIG2B_STATES:
            assert f'"{state}"' in dot
        for label in FIG2B_TOPOLOGY:
            assert f'label="{label}"' in dot

    def test_dot_guards(self):
        dot = render_dot(include_guards=True)
        assert "handover trigger" in dot

    def test_dot_is_valid_shape(self):
        dot = render_dot()
        assert dot.startswith("digraph")
        assert dot.rstrip().endswith("}")

    def test_ascii_lists_all_edges(self):
        text = render_ascii()
        for label, guard in FIG2B_GUARDS.items():
            assert f"[{label}]" in text
            assert guard in text
