"""PHY rates and airtime computation for 802.11b/g.

The paper restricts itself to what a commodity 802.11b/g card reports:
the set of rates {1, 2, 5.5, 11} (DSSS/CCK) and {6, 9, 12, 18, 24, 36,
48, 54} (OFDM/ERP).  The Sigcomm'08 trace and the paper's office traces
are 2.4 GHz b/g captures, so the model stops there — no HT/VHT.

Two notions of "transmission time" coexist deliberately:

* :func:`frame_airtime_us` — the *physical* airtime including PLCP
  preamble/header, used by the simulator so the medium is occupied for
  realistic durations;
* the paper's fingerprint parameter ``tt_i = size_i / rate_i``
  (Section IV-A), computed by :mod:`repro.core.parameters` from the
  Radiotap-visible size and rate exactly as the paper does.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

#: Rates a b/g card may report, in Mbps (Radiotap encodes rate in
#: 500 kbps units, so 5.5 is representable).
DSSS_RATES: tuple[float, ...] = (1.0, 2.0, 5.5, 11.0)
OFDM_RATES: tuple[float, ...] = (6.0, 9.0, 12.0, 18.0, 24.0, 36.0, 48.0, 54.0)
ALL_RATES: tuple[float, ...] = tuple(sorted(DSSS_RATES + OFDM_RATES))

#: Rates the paper's Figure 6 histograms use on the x axis.
PAPER_RATE_AXIS: tuple[float, ...] = (1, 2, 5.5, 11, 12, 18, 24, 36, 48, 54)


class PhyKind(enum.Enum):
    """Modulation family, which decides preamble format and slot time."""

    DSSS = "dsss"
    OFDM = "ofdm"


def phy_kind_for_rate(rate_mbps: float) -> PhyKind:
    """Classify a rate into its modulation family."""
    if rate_mbps in DSSS_RATES:
        return PhyKind.DSSS
    if rate_mbps in OFDM_RATES:
        return PhyKind.OFDM
    raise ValueError(f"not an 802.11b/g rate: {rate_mbps} Mbps")


# PLCP timing constants (IEEE 802.11-2007).
_DSSS_LONG_PREAMBLE_US = 192.0  # 144 µs preamble + 48 µs PLCP header
_DSSS_SHORT_PREAMBLE_US = 96.0
_OFDM_PREAMBLE_US = 16.0  # short+long training sequences
_OFDM_SIGNAL_US = 4.0  # SIGNAL field
_OFDM_SYMBOL_US = 4.0
_OFDM_SERVICE_TAIL_BITS = 16 + 6


@functools.lru_cache(maxsize=4096)
def frame_airtime_us(
    size_bytes: int, rate_mbps: float, short_preamble: bool = True
) -> float:
    """Physical airtime of a frame: PLCP preamble/header + payload.

    For OFDM the payload duration is rounded up to whole symbols as the
    standard requires; for DSSS it is ``bits / rate`` plus the (long or
    short) preamble.  The function is pure and memoised: a simulation
    sees a few hundred (size, rate, preamble) triples (807 over the
    eight library presets at half scale) across tens of thousands of
    exchanges.
    """
    if size_bytes <= 0:
        raise ValueError(f"size must be positive: {size_bytes}")
    kind = phy_kind_for_rate(rate_mbps)
    bits = size_bytes * 8
    if kind is PhyKind.DSSS:
        preamble = _DSSS_SHORT_PREAMBLE_US if short_preamble else _DSSS_LONG_PREAMBLE_US
        # 1 Mbps frames must use the long preamble.
        if rate_mbps == 1.0:
            preamble = _DSSS_LONG_PREAMBLE_US
        return preamble + bits / rate_mbps
    bits_per_symbol = rate_mbps * _OFDM_SYMBOL_US
    symbols = math.ceil((_OFDM_SERVICE_TAIL_BITS + bits) / bits_per_symbol)
    return _OFDM_PREAMBLE_US + _OFDM_SIGNAL_US + symbols * _OFDM_SYMBOL_US


def paper_transmission_time_us(size_bytes: int, rate_mbps: float) -> float:
    """The paper's simplified transmission time ``tt = size / rate``.

    With size in bytes and rate in Mbps this comes out in microseconds
    (bytes·8 / (Mbit/s) = µs); the paper folds the ×8 into its units, so
    we keep the literal ``size/rate`` definition scaled to µs.
    """
    if rate_mbps <= 0:
        raise ValueError(f"rate must be positive: {rate_mbps}")
    return size_bytes * 8.0 / rate_mbps


@dataclass(frozen=True, slots=True)
class Phy:
    """A station's PHY capabilities.

    ``supported_rates`` is the rate ladder rate control may climb;
    ``short_preamble`` models the (driver-dependent) short-preamble
    capability that changes DSSS airtimes.
    """

    supported_rates: tuple[float, ...] = ALL_RATES
    short_preamble: bool = True

    def __post_init__(self) -> None:
        if not self.supported_rates:
            raise ValueError("a PHY must support at least one rate")
        for rate in self.supported_rates:
            phy_kind_for_rate(rate)  # validates
        if tuple(sorted(self.supported_rates)) != self.supported_rates:
            raise ValueError("supported_rates must be sorted ascending")

    def airtime_us(self, size_bytes: int, rate_mbps: float) -> float:
        """Airtime of a frame sent by this PHY."""
        return frame_airtime_us(size_bytes, rate_mbps, self.short_preamble)

    def clamp_rate(self, rate_mbps: float) -> float:
        """Closest supported rate not above ``rate_mbps`` (or lowest)."""
        for rate in reversed(self.supported_rates):
            if rate <= rate_mbps:
                return rate
        return self.supported_rates[0]

    def next_rate_up(self, rate_mbps: float) -> float:
        """The next rung above ``rate_mbps`` (or ``rate_mbps`` at top)."""
        for rate in self.supported_rates:
            if rate > rate_mbps:
                return rate
        return rate_mbps

    def next_rate_down(self, rate_mbps: float) -> float:
        """The next rung below ``rate_mbps`` (or ``rate_mbps`` at bottom)."""
        for rate in reversed(self.supported_rates):
            if rate < rate_mbps:
                return rate
        return rate_mbps


#: Convenience PHYs.
PHY_BG = Phy()
PHY_B_ONLY = Phy(supported_rates=DSSS_RATES)
PHY_G_ONLY = Phy(supported_rates=OFDM_RATES)
