"""DET004 positive fixture: raw/undeclared switch reads in library code.

Linted under a ``repro/net/*`` module key; expected findings: four
DET004 (raw ``os.environ.get`` of a declared switch, raw ``os.getenv``
of an undeclared one — which also trips the declared-name check — and
a raw ``os.environ[...]`` subscript).
"""

import os


def flags():
    index = os.environ.get("REPRO_CELL_INDEX", "on")
    undeclared = os.getenv("REPRO_TURBO")
    stall = os.environ["REPRO_STALL_S"]
    return index, undeclared, stall
