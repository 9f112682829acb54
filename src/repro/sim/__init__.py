"""Discrete-event simulation substrate.

The whole reproduction runs on this small, deterministic event engine:

* :class:`~repro.sim.engine.Simulator` — time base and event queue.
* :class:`~repro.sim.rng.RngRegistry` — named, independently-seeded
  random streams so results are reproducible bit-for-bit from one master
  seed regardless of module evaluation order.
* :class:`~repro.sim.trace.TraceRecorder` — structured event trace used
  both for debugging and for the experiment analysis.
* :class:`~repro.sim.metrics.MetricsRecorder` — named event counters
  collected during a run.
"""

from repro.sim.engine import Event, EventQueue, SimulationError, Simulator
from repro.sim.metrics import MetricsRecorder
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceEvent, TraceRecorder

__all__ = [
    "Event",
    "EventQueue",
    "MetricsRecorder",
    "RngRegistry",
    "SimulationError",
    "Simulator",
    "TraceEvent",
    "TraceRecorder",
]
