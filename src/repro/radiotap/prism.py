"""Prism monitoring header codec.

The paper's method reads capture metadata "from Radiotap [1] or Prism
headers" (Section III).  This module implements the classic Prism
(wlan-ng) monitoring header: a fixed 144-byte structure of ten
DID-tagged items (host time, MAC time, channel, RSSI, signal quality,
signal, noise, rate, direction, frame length) preceding the 802.11
frame, as produced by older wlan-ng/HostAP drivers and carried in
pcaps with ``LINKTYPE_PRISM_HEADER`` (119).

:func:`repro.radiotap.pcap.iter_trace_pcap` decodes Prism-encapsulated
captures with :func:`parse_prism`, so the fingerprinting pipeline and
the CLI accept either format — the same property the paper's tool had.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

LINKTYPE_PRISM_HEADER = 119

PRISM_MSGCODE = 0x00000044
PRISM_HEADER_LEN = 144

#: DID codes of the ten items, in wire order (wlan-ng convention).
DID_HOSTTIME = 0x1041
DID_MACTIME = 0x2041
DID_CHANNEL = 0x3041
DID_RSSI = 0x4041
DID_SQ = 0x5041
DID_SIGNAL = 0x6041
DID_NOISE = 0x7041
DID_RATE = 0x8041
DID_ISTX = 0x9041
DID_FRMLEN = 0xA041

_ITEM_ORDER = (
    DID_HOSTTIME,
    DID_MACTIME,
    DID_CHANNEL,
    DID_RSSI,
    DID_SQ,
    DID_SIGNAL,
    DID_NOISE,
    DID_RATE,
    DID_ISTX,
    DID_FRMLEN,
)

_ITEM = struct.Struct("<IHHI")
_HEAD = struct.Struct("<II16s")

#: Item status values.
STATUS_PRESENT = 0
STATUS_ABSENT = 1


class PrismError(ValueError):
    """Raised on malformed Prism headers."""


@dataclass(slots=True)
class PrismHeader:
    """Parsed Prism monitoring header."""

    device_name: str
    mactime_us: int | None = None
    hosttime: int | None = None
    channel: int | None = None
    signal_dbm: int | None = None
    noise_dbm: int | None = None
    rate_mbps: float | None = None
    frame_length: int | None = None

    @property
    def length(self) -> int:
        """Header length on the wire (always 144 bytes)."""
        return PRISM_HEADER_LEN


def build_prism(
    mactime_us: int,
    channel: int,
    rate_mbps: float,
    frame_length: int,
    signal_dbm: int = -50,
    noise_dbm: int = -95,
    device_name: str = "wlan0",
) -> bytes:
    """Serialise a Prism monitoring header.

    ``rate`` uses the wlan-ng convention of 500 kbps units; signal and
    noise are encoded as unsigned dBm offsets the way HostAP reported
    them (two's complement in a u32).
    """
    rate_units = round(rate_mbps * 2)
    if not 0 < rate_units <= 0xFF:
        raise PrismError(f"rate not encodable: {rate_mbps} Mbps")
    values = {
        DID_HOSTTIME: (STATUS_PRESENT, (mactime_us // 1000) & 0xFFFFFFFF),
        DID_MACTIME: (STATUS_PRESENT, mactime_us & 0xFFFFFFFF),
        DID_CHANNEL: (STATUS_PRESENT, channel),
        DID_RSSI: (STATUS_ABSENT, 0),
        DID_SQ: (STATUS_ABSENT, 0),
        DID_SIGNAL: (STATUS_PRESENT, signal_dbm & 0xFFFFFFFF),
        DID_NOISE: (STATUS_PRESENT, noise_dbm & 0xFFFFFFFF),
        DID_RATE: (STATUS_PRESENT, rate_units),
        DID_ISTX: (STATUS_PRESENT, 0),
        DID_FRMLEN: (STATUS_PRESENT, frame_length),
    }
    parts = bytearray()
    parts += _HEAD.pack(
        PRISM_MSGCODE, PRISM_HEADER_LEN, device_name.encode()[:15].ljust(16, b"\x00")
    )
    for did in _ITEM_ORDER:
        status, data = values[did]
        parts += _ITEM.pack(did, status, 4, data)
    assert len(parts) == PRISM_HEADER_LEN
    return bytes(parts)


def parse_prism(data: bytes) -> PrismHeader:
    """Parse a Prism header from the start of ``data``."""
    if len(data) < PRISM_HEADER_LEN:
        raise PrismError(f"buffer too short for Prism header: {len(data)}")
    msgcode, msglen, devname = _HEAD.unpack_from(data)
    if msgcode != PRISM_MSGCODE:
        raise PrismError(f"bad Prism msgcode: {msgcode:#x}")
    if msglen != PRISM_HEADER_LEN:
        raise PrismError(f"bad Prism msglen: {msglen}")
    header = PrismHeader(device_name=devname.rstrip(b"\x00").decode(errors="replace"))
    offset = _HEAD.size
    for _ in range(10):
        did, status, length, raw = _ITEM.unpack_from(data, offset)
        offset += _ITEM.size
        if length != 4:
            raise PrismError(f"unexpected Prism item length: {length}")
        if status != STATUS_PRESENT:
            continue
        if did == DID_MACTIME:
            header.mactime_us = raw
        elif did == DID_HOSTTIME:
            header.hosttime = raw
        elif did == DID_CHANNEL:
            header.channel = raw
        elif did == DID_SIGNAL:
            header.signal_dbm = raw - (1 << 32) if raw > (1 << 31) else raw
        elif did == DID_NOISE:
            header.noise_dbm = raw - (1 << 32) if raw > (1 << 31) else raw
        elif did == DID_RATE:
            header.rate_mbps = raw / 2.0
        elif did == DID_FRMLEN:
            header.frame_length = raw
    return header
