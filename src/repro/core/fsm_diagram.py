"""Fig. 2b as data: the state-machine topology and DOT rendering.

The paper presents the protocol as a five-state diagram with edges A-H.
This module is the single source of truth for that topology — the
FIG2B-FSM bench checks simulated edge coverage against it, and
:func:`render_dot` emits a graphviz rendering for the docs.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.core.events import Fig2bEdge

#: The figure's states, in presentation order.
FIG2B_STATES: Tuple[str, ...] = ("EO", "S-RBA", "CABM", "N-A/R", "N-RBA")

#: Edge label -> (source state, destination state), per Fig. 2b.
FIG2B_TOPOLOGY: Dict[str, Tuple[str, str]] = {
    "A": ("EO", "EO"),
    "B": ("EO", "N-A/R"),
    "C": ("N-A/R", "N-RBA"),
    "D": ("N-RBA", "N-A/R"),
    "E": ("N-RBA", "EO"),
    "F": ("CABM", "EO"),
    "G": ("S-RBA", "CABM"),
    "H": ("N-RBA", "N-RBA"),
}

#: Human-readable guard condition per edge (the figure's annotations).
FIG2B_GUARDS: Dict[str, str] = {
    "A": "dRSS_S < 3 dB (serving connectivity healthy)",
    "B": "initiate neighbor cell beam search",
    "C": "found cell beam",
    "D": "dRSS_N > 10 dB (lost beam)",
    "E": "RSS_N > RSS_S + T (handover trigger)",
    "F": "cell-assisted receive beam adaptation",
    "G": "dRSS_S > 3 dB (assistance delayed or lost)",
    "H": "dRSS_N > 3 dB (adjacent receive-beam switch)",
}


def validate_topology() -> None:
    """Internal consistency: every edge endpoint is a known state and
    every enum member has a topology entry.  Raises on violation."""
    for label, (src, dst) in FIG2B_TOPOLOGY.items():
        if src not in FIG2B_STATES or dst not in FIG2B_STATES:
            raise ValueError(f"edge {label} references unknown state {src}->{dst}")
        Fig2bEdge(label)  # raises if the label is not an enum member
    for member in Fig2bEdge:
        if member.value not in FIG2B_TOPOLOGY:
            raise ValueError(f"enum edge {member.value} missing from topology")
    if set(FIG2B_GUARDS) != set(FIG2B_TOPOLOGY):
        raise ValueError("guard annotations out of sync with topology")


def render_dot(include_guards: bool = False) -> str:
    """Fig. 2b as graphviz DOT source.

    ``include_guards=True`` annotates each edge with its threshold
    condition, matching the figure's labels.
    """
    validate_topology()
    lines = [
        "digraph fig2b {",
        "  rankdir=LR;",
        '  label="Silent Tracker state machine (Fig. 2b)";',
    ]
    for state in FIG2B_STATES:
        lines.append(f'  "{state}" [shape=ellipse];')
    for label in sorted(FIG2B_TOPOLOGY):
        src, dst = FIG2B_TOPOLOGY[label]
        text = f"{label}: {FIG2B_GUARDS[label]}" if include_guards else label
        lines.append(f'  "{src}" -> "{dst}" [label="{text}"];')
    lines.append("}")
    return "\n".join(lines)


def render_ascii() -> str:
    """Terminal-friendly adjacency listing of the machine."""
    validate_topology()
    lines = ["Silent Tracker state machine (Fig. 2b):"]
    for label in sorted(FIG2B_TOPOLOGY):
        src, dst = FIG2B_TOPOLOGY[label]
        lines.append(f"  [{label}] {src:>6} -> {dst:<6}  {FIG2B_GUARDS[label]}")
    return "\n".join(lines)
