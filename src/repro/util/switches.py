"""The declared table of ``REPRO_*`` environment switches.

Every runtime behaviour toggle this project reads from the environment
is declared here — name, allowed values, default, and what the switch
trades off — and read through :func:`switch_value`.  Centralizing the
reads buys three things:

* one table documents every toggle (``repro list switches``) instead
  of ad-hoc ``os.environ`` reads scattered through the code;
* an undeclared or misspelled switch name is a hard error, not a
  silently-ignored environment variable; and
* the :mod:`repro.lint` determinism linter (rule DET004) can statically
  reject any raw ``os.environ`` read of a ``REPRO_*`` name outside this
  module.

Values are read from the environment *at call time* (not import time),
so :func:`repro.bench.harness.env_override` contexts and test
monkeypatching behave as expected.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Tuple


class SwitchError(ValueError):
    """An undeclared switch name or an out-of-range switch value.

    A ``ValueError`` subclass so library callers and tests can keep
    catching ``ValueError``; the CLI maps it to a one-line exit 2.
    """


@dataclass(frozen=True)
class Switch:
    """One declared environment switch.

    ``values`` is the closed set of legal strings for an enum switch.
    An *empty* ``values`` tuple declares a free-form switch (e.g. a
    numeric threshold) whose legal range is described by ``hint`` and
    enforced by its typed accessor (:func:`switch_float`).
    """

    name: str
    default: str
    values: Tuple[str, ...]
    description: str
    hint: str = ""


#: The declared switches, in display order.  Adding a runtime toggle
#: means adding a row here — DET004 rejects raw reads elsewhere.
_TABLE: Tuple[Switch, ...] = (
    Switch(
        name="REPRO_CELL_INDEX",
        default="on",
        values=("on", "off"),
        description=(
            "Spatial cell index: prune provably-undetectable "
            "(station, mobile) pairs behind the link-budget guard "
            "radius, or evaluate every pair"
        ),
    ),
    Switch(
        name="REPRO_HEARTBEAT_S",
        default="5",
        values=(),
        description=(
            "Monitor heartbeat interval: how often a fleet worker posts "
            "an events/s + RSS/CPU heartbeat over the progress pipe "
            "(only read when the monitor is enabled)"
        ),
        hint="seconds > 0",
    ),
    Switch(
        name="REPRO_STALL_S",
        default="30",
        values=(),
        description=(
            "Monitor stall threshold: a shard silent on the progress "
            "pipe for this long is flagged as a straggler "
            "(only read when the monitor is enabled)"
        ),
        hint="seconds > 0",
    ),
)

#: Declared switches by name.
SWITCHES: Dict[str, Switch] = {switch.name: switch for switch in _TABLE}


def switch(name: str) -> Switch:
    """The declaration for ``name``; ``SwitchError`` if undeclared."""
    try:
        return SWITCHES[name]
    except KeyError:
        raise SwitchError(
            f"undeclared switch {name!r}; declared: "
            f"{', '.join(sorted(SWITCHES))}"
        ) from None


def switch_value(name: str) -> str:
    """The validated current value of declared switch ``name``.

    Reads the environment at call time; an unset variable yields the
    declared default, and a value outside the declared set raises
    ``SwitchError`` naming the switch (loud failure beats a typo
    silently selecting the default path).
    """
    declared = switch(name)
    value = os.environ.get(declared.name, declared.default)
    if declared.values and value not in declared.values:
        raise SwitchError(
            f"{declared.name} must be one of {declared.values}, got {value!r}"
        )
    return value


def switch_float(name: str) -> float:
    """The current value of free-form switch ``name`` as a positive float.

    Same call-time environment semantics as :func:`switch_value`, with
    the numeric validation a free-form (empty ``values``) switch needs:
    non-numeric or non-positive values raise ``SwitchError``.
    """
    raw = switch_value(name)
    try:
        value = float(raw)
    except ValueError:
        raise SwitchError(
            f"{name} must be a number ({switch(name).hint or 'seconds'}), "
            f"got {raw!r}"
        ) from None
    if value <= 0:
        raise SwitchError(f"{name} must be > 0, got {raw!r}")
    return value


def switch_records() -> list:
    """JSON-friendly rows for ``repro list switches``."""
    return [
        {
            "name": s.name,
            "default": s.default,
            "values": list(s.values),
            "description": s.description,
            "hint": s.hint,
        }
        for s in _TABLE
    ]
