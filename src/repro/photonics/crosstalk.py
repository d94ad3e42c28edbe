"""Inter-channel crosstalk power penalty.

Dense WDM through cascaded micro-rings leaks a fraction of each
neighbouring channel's power into a receiver (Jayatilleka et al.
[62], the source of the paper's 1 dB ring-drop figure, quantify the
resulting demultiplexer limits).  The penalty grows with the number
of co-propagating channels and shrinks with channel spacing, and adds
to the link budget exactly like any other dB term -- so finer WDM is
not free even before the laser-power exponentials of Fig. 19.

The model below is the standard first-order coherent-crosstalk
penalty: with ``n`` aggressor channels each suppressed by ``x`` dB,

    penalty = -10 * log10(1 - sum_of_aggressor_ratios)

capped to a validity domain (total aggressor power below the signal).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

from ..errors import ConfigError
from .units import db_to_ratio

__all__ = ["CrosstalkModel", "DEFAULT_CROSSTALK"]


@dataclass(frozen=True)
class CrosstalkModel:
    """First-order crosstalk penalty for a WDM receiver.

    ``suppression_db`` is how far one adjacent channel is suppressed
    at the drop port (positive dB); ``rolloff_db_per_channel`` is the
    extra suppression per additional channel of spectral distance.
    """

    suppression_db: float = 25.0
    rolloff_db_per_channel: float = 3.0

    def __post_init__(self) -> None:
        for name in ("suppression_db", "rolloff_db_per_channel"):
            value = getattr(self, name)
            # bool is an int subclass; a huge int overflows float math.
            if isinstance(value, bool) or not isinstance(value, Real):
                raise ConfigError(
                    f"{name} must be a real number of dB, "
                    f"got {type(value).__name__}"
                )
            try:
                finite = math.isfinite(value)
            except OverflowError:
                finite = False
            if not finite:
                raise ConfigError(f"{name} must be a finite number of dB")
        if self.suppression_db <= 0:
            raise ConfigError("suppression must be > 0 dB")
        if self.rolloff_db_per_channel < 0:
            raise ConfigError("rolloff must be >= 0 dB/channel")

    def aggressor_ratio(self, distance: int) -> float:
        """Leaked power ratio from a channel ``distance`` slots away."""
        if distance < 1:
            raise ConfigError("aggressors are at distance >= 1")
        suppression = (
            self.suppression_db + (distance - 1) * self.rolloff_db_per_channel
        )
        return db_to_ratio(-suppression)

    def total_leakage_ratio(self, n_channels: int) -> float:
        """Summed leakage from every other channel on the waveguide."""
        if n_channels < 1:
            raise ConfigError("need at least one channel")
        leakage = 0.0
        # Aggressors sit on both spectral sides of the victim.
        for distance in range(1, n_channels):
            sides = 2 if distance < n_channels - 1 else 1
            leakage += sides * self.aggressor_ratio(distance)
        return leakage

    def penalty_db(self, n_channels: int) -> float:
        """Crosstalk power penalty for an ``n``-channel waveguide.

        Returns 0 dB for a single channel; raises if the aggregate
        leakage approaches the signal power (the link is then simply
        infeasible at this channel count and suppression).
        """
        if n_channels == 1:
            return 0.0
        leakage = self.total_leakage_ratio(n_channels)
        if leakage >= 0.5:
            raise ConfigError(
                f"aggregate crosstalk ratio {leakage:.3f} too high for a "
                f"first-order penalty model ({n_channels} channels at "
                f"{self.suppression_db} dB suppression)"
            )
        return -10.0 * math.log10(1.0 - leakage)


DEFAULT_CROSSTALK = CrosstalkModel()
