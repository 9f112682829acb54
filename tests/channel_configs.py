"""Channel configurations shared by the tests."""

from repro.phy.blockage import BlockageConfig
from repro.phy.channel import ChannelConfig

#: No randomness: pure path loss (no shadowing, fading or blockage).
DETERMINISTIC = ChannelConfig(
    shadowing_sigma_db=0.0,
    rician_k_db=None,
    blockage=BlockageConfig(rate_per_s=0.0),
)
