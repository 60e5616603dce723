"""Monitor-mode view of a frame: what a Radiotap capture exposes.

A passive monitor sees, per frame: the end-of-reception timestamp, the
frame size, the transmission rate, signal strength, channel and the
decoded MAC header.  :class:`CapturedFrame` is that view — the *only*
input to the fingerprinting core, which enforces the paper's constraint
that fingerprints be computable from Radiotap/Prism metadata alone.

The three MAC-header bits the paper's frame rules read travel with a
capture's columns as one ``flags`` byte
(:attr:`repro.traces.table.FrameTable.flags`); its bit values are
defined here, next to the frame view they summarise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.dot11.frames import Dot11Frame, FrameSubtype
from repro.dot11.mac import MacAddress

#: ``flags`` bit: the frame is a retransmission (802.11 Retry bit).
RETRY = 0x01
#: ``flags`` bit: the frame comes from the distribution system (From DS).
FROM_DS = 0x02
#: ``flags`` bit: the receiver (addr1) is a group address (its I/G bit).
GROUP_ADDRESSED = 0x04


@dataclass(frozen=True, slots=True)
class CapturedFrame:
    """One captured frame with its Radiotap-level metadata.

    ``timestamp_us`` is the **end-of-reception** time in microseconds —
    the paper's ``t_i``.  ``rate_mbps`` and ``size`` come from the
    Radiotap header (the receiving card fills them in, so an emitter
    cannot spoof them without actually changing its behaviour).
    """

    timestamp_us: float
    frame: Dot11Frame
    rate_mbps: float
    signal_dbm: float = -50.0
    channel: int = 6
    airtime_us: float | None = None

    def __post_init__(self) -> None:
        if self.rate_mbps <= 0:
            raise ValueError(f"rate must be positive: {self.rate_mbps}")
        if self.timestamp_us < 0:
            raise ValueError(f"timestamp must be >= 0: {self.timestamp_us}")

    @property
    def sender(self) -> MacAddress | None:
        """Sender attribution as per the paper (``None`` for ACK/CTS)."""
        return self.frame.transmitter

    @property
    def size(self) -> int:
        """Frame size in bytes as reported by the capture."""
        return self.frame.size

    @property
    def subtype(self) -> FrameSubtype:
        """The frame subtype."""
        return self.frame.subtype

    @property
    def ftype_key(self) -> str:
        """Histogram key (frame-type label)."""
        return self.frame.ftype_key

    def with_sender(self, sender: MacAddress) -> "CapturedFrame":
        """Copy with a rewritten transmitter (MAC spoofing model)."""
        if not self.frame.subtype.has_transmitter_address:
            raise ValueError("cannot rewrite the sender of an ACK/CTS frame")
        return replace(self, frame=replace(self.frame, addr2=sender))
