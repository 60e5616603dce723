"""802.11 frame types, subtypes and the in-memory frame model.

The paper's signature construction keys histograms by *frame type*
("e.g. Data frames, Probe Requests, ...").  We follow the 802.11
type/subtype taxonomy: ``FrameType`` is the 2-bit type field
(management / control / data) and ``FrameSubtype`` the 4-bit subtype.
The fingerprinting layer uses :meth:`Dot11Frame.ftype_key` — the
subtype-level label — as the histogram key, which is what the paper's
examples (Probe Request, Data null function, RTS, ...) imply.

Sender-attribution rules from Section IV-A are encoded here as well:
ACK and CTS frames carry no transmitter address, so a passive monitor
cannot attribute them (``si = null`` in the paper).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.dot11.mac import BROADCAST, MacAddress


class FrameType(enum.IntEnum):
    """The 2-bit 802.11 frame type."""

    MANAGEMENT = 0
    CONTROL = 1
    DATA = 2


class FrameSubtype(enum.Enum):
    """Frame subtypes used by the model (type, subtype) pairs.

    The numeric values follow IEEE 802.11-2007 Table 7-1 so the wire
    codec can round-trip them.
    """

    # Management
    ASSOC_REQUEST = (FrameType.MANAGEMENT, 0)
    ASSOC_RESPONSE = (FrameType.MANAGEMENT, 1)
    PROBE_REQUEST = (FrameType.MANAGEMENT, 4)
    PROBE_RESPONSE = (FrameType.MANAGEMENT, 5)
    BEACON = (FrameType.MANAGEMENT, 8)
    DISASSOC = (FrameType.MANAGEMENT, 10)
    AUTH = (FrameType.MANAGEMENT, 11)
    DEAUTH = (FrameType.MANAGEMENT, 12)
    # Control
    BLOCK_ACK_REQ = (FrameType.CONTROL, 8)
    BLOCK_ACK = (FrameType.CONTROL, 9)
    PS_POLL = (FrameType.CONTROL, 10)
    RTS = (FrameType.CONTROL, 11)
    CTS = (FrameType.CONTROL, 12)
    ACK = (FrameType.CONTROL, 13)
    # Data
    DATA = (FrameType.DATA, 0)
    NULL_FUNCTION = (FrameType.DATA, 4)
    QOS_DATA = (FrameType.DATA, 8)
    QOS_NULL = (FrameType.DATA, 12)

    @property
    def ftype(self) -> FrameType:
        """The 2-bit type this subtype belongs to."""
        return self.value[0]

    @property
    def subtype_code(self) -> int:
        """The 4-bit subtype field value."""
        return self.value[1]

    @property
    def label(self) -> str:
        """Human-readable histogram key, e.g. ``"Probe Request"``."""
        return _LABELS[self]

    @property
    def has_transmitter_address(self) -> bool:
        """Whether a passive monitor can attribute this frame's sender.

        ACK and CTS frames carry only a receiver address (paper
        Section IV-A, footnote 2): their sender is ``None``.
        """
        return self not in _UNATTRIBUTABLE

    @classmethod
    def from_codes(cls, ftype: int, subtype: int) -> "FrameSubtype":
        """Look up a subtype from the wire (type, subtype) codes."""
        try:
            return _BY_CODE[(ftype, subtype)]
        except KeyError:
            raise ValueError(
                f"unsupported frame type/subtype: ({ftype}, {subtype})"
            ) from None


_LABELS: dict[FrameSubtype, str] = {
    FrameSubtype.ASSOC_REQUEST: "Association Request",
    FrameSubtype.ASSOC_RESPONSE: "Association Response",
    FrameSubtype.PROBE_REQUEST: "Probe Request",
    FrameSubtype.PROBE_RESPONSE: "Probe Response",
    FrameSubtype.BEACON: "Beacon",
    FrameSubtype.DISASSOC: "Disassociation",
    FrameSubtype.AUTH: "Authentication",
    FrameSubtype.DEAUTH: "Deauthentication",
    FrameSubtype.BLOCK_ACK_REQ: "Block Ack Request",
    FrameSubtype.BLOCK_ACK: "Block Ack",
    FrameSubtype.PS_POLL: "PS-Poll",
    FrameSubtype.RTS: "RTS",
    FrameSubtype.CTS: "CTS",
    FrameSubtype.ACK: "ACK",
    FrameSubtype.DATA: "Data",
    FrameSubtype.NULL_FUNCTION: "Data Null Function",
    FrameSubtype.QOS_DATA: "QoS Data",
    FrameSubtype.QOS_NULL: "QoS Null",
}

_BY_CODE: dict[tuple[int, int], FrameSubtype] = {
    (st.ftype.value, st.subtype_code): st for st in FrameSubtype
}

#: Subtypes without a transmitter address.  A tuple, tested by
#: identity: building a frame must not run an enum property per frame.
_UNATTRIBUTABLE = (FrameSubtype.ACK, FrameSubtype.CTS)

#: MAC header + FCS overhead in bytes for the common three-address
#: data/management format (24 header + 4 FCS).
MAC_OVERHEAD_BYTES = 28
#: Control frame sizes on the wire (including FCS).
RTS_SIZE = 20
CTS_SIZE = 14
ACK_SIZE = 14
NULL_SIZE = MAC_OVERHEAD_BYTES  # header-only frame
PS_POLL_SIZE = 20


@dataclass(slots=True)
class Dot11Frame:
    """An 802.11 frame as modelled by the simulator.

    ``size`` is the full MAC-layer size in bytes (header + payload +
    FCS) — the quantity reported in Radiotap captures and used by the
    paper's *frame size* parameter.

    ``addr1`` is the receiver, ``addr2`` the transmitter and ``addr3``
    the BSSID/DA depending on direction; control frames that omit a
    transmitter address leave ``addr2`` as ``None``.
    """

    subtype: FrameSubtype
    size: int
    addr1: MacAddress = BROADCAST
    addr2: MacAddress | None = None
    addr3: MacAddress | None = None
    retry: bool = False
    to_ds: bool = False
    from_ds: bool = False
    protected: bool = False
    power_mgmt: bool = False
    duration_us: int = 0
    seq: int = 0
    payload: bytes = field(default=b"", repr=False)

    def __post_init__(self) -> None:
        if self.size < 10:
            raise ValueError(f"frame too small to be valid 802.11: {self.size}")
        if self.addr2 is not None and self.subtype in _UNATTRIBUTABLE:
            raise ValueError(f"{self.subtype.label} frames carry no transmitter address")

    @property
    def ftype(self) -> FrameType:
        """The 2-bit frame type."""
        return self.subtype.ftype

    @property
    def ftype_key(self) -> str:
        """Histogram key used by signature construction."""
        return self.subtype.label

    @property
    def transmitter(self) -> MacAddress | None:
        """Sender as observable by a passive monitor (may be ``None``)."""
        return self.addr2

    @property
    def is_broadcast(self) -> bool:
        """True when addressed to the broadcast address."""
        return self.addr1.is_broadcast

    @property
    def is_multicast(self) -> bool:
        """True when addressed to a group address."""
        return self.addr1.is_multicast

    @property
    def is_data(self) -> bool:
        """True for any data-type frame (incl. null/QoS variants)."""
        return self.ftype is FrameType.DATA

    @property
    def is_null_function(self) -> bool:
        """True for (QoS) null-function frames (power-save signalling)."""
        return self.subtype in (FrameSubtype.NULL_FUNCTION, FrameSubtype.QOS_NULL)


def ack_frame(receiver: MacAddress) -> Dot11Frame:
    """Build an ACK for ``receiver`` (the station being acknowledged)."""
    return Dot11Frame(subtype=FrameSubtype.ACK, size=ACK_SIZE, addr1=receiver)


def cts_frame(receiver: MacAddress, duration_us: int = 0) -> Dot11Frame:
    """Build a CTS addressed to the RTS originator."""
    return Dot11Frame(
        subtype=FrameSubtype.CTS, size=CTS_SIZE, addr1=receiver, duration_us=duration_us
    )


def rts_frame(
    transmitter: MacAddress, receiver: MacAddress, duration_us: int
) -> Dot11Frame:
    """Build an RTS reserving the medium for ``duration_us``."""
    return Dot11Frame(
        subtype=FrameSubtype.RTS,
        size=RTS_SIZE,
        addr1=receiver,
        addr2=transmitter,
        duration_us=duration_us,
    )


def null_frame(
    transmitter: MacAddress, bssid: MacAddress, power_save: bool
) -> Dot11Frame:
    """Build a Data Null Function frame (power-management signalling)."""
    return Dot11Frame(
        subtype=FrameSubtype.NULL_FUNCTION,
        size=NULL_SIZE,
        addr1=bssid,
        addr2=transmitter,
        addr3=bssid,
        to_ds=True,
        power_mgmt=power_save,
    )
