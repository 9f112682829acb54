"""Physical-layer substrate: antennas, codebooks, channel, link budget, framing.

This package replaces the paper's 60 GHz NI mmWave SDR testbed with a
statistical link-level model.  The protocol layer above consumes only
what the real hardware would expose in-band: an RSS value per
(transmit-beam, receive-beam) dwell, plus the discrete timing grid on
which such dwells can occur.
"""

from repro.phy.antenna import (
    AntennaPattern,
    GaussianBeamPattern,
    OmniPattern,
    peak_gain_dbi_for_beamwidth,
)
from repro.phy.channel import Channel, ChannelConfig, LinkState
from repro.phy.codebook import Beam, Codebook
from repro.phy.frame import FrameConfig, RachConfig, SsbSchedule
from repro.phy.link import LinkBudget

__all__ = [
    "AntennaPattern",
    "Beam",
    "Channel",
    "ChannelConfig",
    "Codebook",
    "FrameConfig",
    "GaussianBeamPattern",
    "LinkBudget",
    "LinkState",
    "OmniPattern",
    "RachConfig",
    "SsbSchedule",
    "peak_gain_dbi_for_beamwidth",
]
