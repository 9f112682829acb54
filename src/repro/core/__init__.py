"""The paper's contribution: Silent Tracker and its companions.

* :class:`~repro.core.silent_tracker.SilentTracker` — the in-band
  soft-handover beam-management protocol (Fig. 2b state machine).
* :class:`~repro.core.beamsurfer.BeamSurfer` — the serving-cell beam
  maintenance protocol Silent Tracker runs concurrently (ref. [2] of the
  paper).
* :mod:`repro.core.baselines` — reactive hard handover and a
  genie-aided oracle tracker for comparison benches.
* :class:`~repro.core.arm.ProtocolArm` — the mechanism all three arms
  share: serving attachment and upkeep (with the CABM uplink request),
  the RLF / context-loss watchdog, random access and the context
  switch.  Each arm subclasses it and keeps only its policy.
"""

from repro.core.beamsurfer import BeamSurfer, BeamSurferConfig, ServingState
from repro.core.config import SilentTrackerConfig
from repro.core.events import Fig2bEdge, NeighborState
from repro.core.neighbor_tracker import NeighborTracker
from repro.core.silent_tracker import SilentTracker

__all__ = [
    "BeamSurfer",
    "BeamSurferConfig",
    "Fig2bEdge",
    "NeighborState",
    "NeighborTracker",
    "ServingState",
    "SilentTracker",
    "SilentTrackerConfig",
]
