"""DET004 negative fixture: the declared-table accessor."""

from repro.util.switches import switch_value


def flags():
    return switch_value("REPRO_CELL_INDEX")
