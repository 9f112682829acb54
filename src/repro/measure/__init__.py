"""Measurement layer: RSS reports and protocol-facing filters.

Everything Silent Tracker knows about the world arrives through this
package: timestamped RSS measurements per (cell, tx-beam, rx-beam)
dwell, smoothed and compared against the protocol's dB thresholds.
"""

from repro.measure.filters import DropDetector, HysteresisTrigger
from repro.measure.report import RssMeasurement

__all__ = [
    "DropDetector",
    "HysteresisTrigger",
    "RssMeasurement",
]
