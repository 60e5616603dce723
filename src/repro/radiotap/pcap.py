"""libpcap file reader/writer for 802.11 monitor-mode captures.

Implements the classic pcap container (24-byte global header, 16-byte
per-record headers) with microsecond timestamps, for the two capture
headers the paper's method reads metadata from (Section III):
``LINKTYPE_IEEE802_11_RADIOTAP`` (127) — the format monitor-mode
captures such as the Sigcomm'08 CRAWDAD trace ship in — and
``LINKTYPE_PRISM_HEADER`` (119), the older wlan-ng/HostAP format.

The integration helpers bridge pcap files and the in-memory trace
model: :func:`write_trace_pcap` and :func:`write_trace_pcap_prism`
persist a list of :class:`~repro.dot11.capture.CapturedFrame`,
:func:`iter_trace_pcap` is the one decoder — it streams either
linktype one frame at a time in O(1) memory (the streaming engine's
on-disk source) — and :func:`read_trace_pcap` lists its frames, so
every fingerprinting experiment can run off a standard on-disk
capture.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

from repro.dot11.capture import CapturedFrame
from repro.radiotap.dot11_codec import decode_dot11, encode_dot11
from repro.radiotap.parser import parse_radiotap
from repro.radiotap.prism import LINKTYPE_PRISM_HEADER, build_prism, parse_prism
from repro.radiotap.writer import build_radiotap

PCAP_MAGIC_US = 0xA1B2C3D4
PCAP_MAGIC_US_SWAPPED = 0xD4C3B2A1
LINKTYPE_IEEE802_11_RADIOTAP = 127

_GLOBAL = struct.Struct("<IHHiIII")
_GLOBAL_BE = struct.Struct(">IHHiIII")
_RECORD = struct.Struct("<IIII")
_RECORD_BE = struct.Struct(">IIII")


class PcapError(ValueError):
    """Raised on malformed pcap containers."""


@dataclass(slots=True)
class PcapRecord:
    """One raw pcap record: timestamp plus captured bytes."""

    ts_sec: int
    ts_usec: int
    orig_len: int
    data: bytes

    @property
    def timestamp_us(self) -> float:
        """Timestamp in microseconds since the epoch of the capture."""
        return self.ts_sec * 1e6 + self.ts_usec


class PcapWriter:
    """Streaming pcap writer.

    Usable as a context manager::

        with PcapWriter(path) as writer:
            writer.write_record(timestamp_us, frame_bytes)
    """

    def __init__(
        self,
        destination: str | Path | BinaryIO,
        linktype: int = LINKTYPE_IEEE802_11_RADIOTAP,
        snaplen: int = 65535,
    ) -> None:
        if isinstance(destination, (str, Path)):
            self._stream: BinaryIO = open(destination, "wb")
            self._owns_stream = True
        else:
            self._stream = destination
            self._owns_stream = False
        self._snaplen = snaplen
        self._stream.write(
            _GLOBAL.pack(PCAP_MAGIC_US, 2, 4, 0, 0, snaplen, linktype)
        )

    def write_record(self, timestamp_us: float, data: bytes) -> None:
        """Append one record; truncates at the snap length."""
        if timestamp_us < 0:
            raise PcapError(f"negative timestamp: {timestamp_us}")
        captured = data[: self._snaplen]
        ts_sec, ts_usec = divmod(round(timestamp_us), 1_000_000)
        self._stream.write(_RECORD.pack(ts_sec, ts_usec, len(captured), len(data)))
        self._stream.write(captured)

    def close(self) -> None:
        """Flush and close (only closes streams this writer opened)."""
        self._stream.flush()
        if self._owns_stream:
            self._stream.close()

    def __enter__(self) -> "PcapWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class PcapReader:
    """Streaming pcap reader supporting both byte orders."""

    def __init__(self, source: str | Path | BinaryIO | bytes) -> None:
        if isinstance(source, bytes):
            self._stream: BinaryIO = io.BytesIO(source)
            self._owns_stream = True
        elif isinstance(source, (str, Path)):
            self._stream = open(source, "rb")
            self._owns_stream = True
        else:
            self._stream = source
            self._owns_stream = False
        header = self._stream.read(_GLOBAL.size)
        if len(header) != _GLOBAL.size:
            raise PcapError("truncated pcap global header")
        magic = struct.unpack_from("<I", header)[0]
        if magic == PCAP_MAGIC_US:
            self._global_struct, self._record_struct = _GLOBAL, _RECORD
        elif magic == PCAP_MAGIC_US_SWAPPED:
            self._global_struct, self._record_struct = _GLOBAL_BE, _RECORD_BE
        else:
            raise PcapError(f"bad pcap magic: {magic:#010x}")
        (
            _magic,
            major,
            minor,
            _thiszone,
            _sigfigs,
            self.snaplen,
            self.linktype,
        ) = self._global_struct.unpack(header)
        if (major, minor) != (2, 4):
            raise PcapError(f"unsupported pcap version: {major}.{minor}")

    def __iter__(self) -> Iterator[PcapRecord]:
        return self

    def __next__(self) -> PcapRecord:
        header = self._stream.read(_RECORD.size)
        if not header:
            raise StopIteration
        if len(header) != _RECORD.size:
            raise PcapError("truncated pcap record header")
        ts_sec, ts_usec, incl_len, orig_len = self._record_struct.unpack(header)
        if ts_usec >= 1_000_000:
            raise PcapError(f"invalid microsecond field: {ts_usec}")
        data = self._stream.read(incl_len)
        if len(data) != incl_len:
            raise PcapError("truncated pcap record body")
        return PcapRecord(ts_sec=ts_sec, ts_usec=ts_usec, orig_len=orig_len, data=data)

    def close(self) -> None:
        """Close the underlying stream if this reader opened it."""
        if self._owns_stream:
            self._stream.close()

    def __enter__(self) -> "PcapReader":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def write_trace_pcap(
    destination: str | Path | BinaryIO, frames: Iterable[CapturedFrame]
) -> int:
    """Persist captured frames as a radiotap pcap; returns the count.

    Each frame is serialised as radiotap (TSFT/Flags/Rate/Channel/
    signal) followed by the full 802.11 bytes with FCS.
    """
    count = 0
    with PcapWriter(destination) as writer:
        for captured in frames:
            radiotap = build_radiotap(
                tsft_us=round(captured.timestamp_us),
                rate_mbps=captured.rate_mbps,
                channel=captured.channel,
                antenna_signal_dbm=round(captured.signal_dbm),
            )
            writer.write_record(
                captured.timestamp_us, radiotap + encode_dot11(captured.frame)
            )
            count += 1
    return count


def write_trace_pcap_prism(
    destination: str | Path | BinaryIO, frames: Iterable[CapturedFrame]
) -> int:
    """Persist captured frames as a Prism-encapsulated pcap; returns
    the count."""
    count = 0
    with PcapWriter(destination, linktype=LINKTYPE_PRISM_HEADER) as writer:
        for captured in frames:
            prism = build_prism(
                mactime_us=round(captured.timestamp_us),
                channel=captured.channel,
                rate_mbps=captured.rate_mbps,
                frame_length=captured.size,
                signal_dbm=round(captured.signal_dbm),
            )
            writer.write_record(
                captured.timestamp_us, prism + encode_dot11(captured.frame)
            )
            count += 1
    return count


def iter_trace_pcap(
    source: str | Path | BinaryIO | bytes, skip_bad_fcs: bool = False
) -> Iterator[CapturedFrame]:
    """Stream a radiotap or Prism pcap one frame at a time, in O(1) memory.

    The streaming engine's pcap source: records are decoded lazily as
    the iterator advances, so captures of unbounded length never
    materialise as a list.  Radiotap timestamps prefer the TSFT (µs
    precision inside the capture) and fall back to the pcap record
    timestamp; Prism timestamps are the record timestamp, because the
    32-bit Prism MAC time wraps every ~71 minutes.  Any other linktype
    raises :class:`PcapError`.  A radiotap record carries the trailing
    FCS only when its Flags field says so; Prism records always carry
    it.  Frames whose FCS fails verification are kept unless
    ``skip_bad_fcs`` is set — mirroring the choice a real monitoring
    deployment must make.
    """
    with PcapReader(source) as reader:
        prism = reader.linktype == LINKTYPE_PRISM_HEADER
        if not prism and reader.linktype != LINKTYPE_IEEE802_11_RADIOTAP:
            raise PcapError(
                f"unsupported linktype {reader.linktype}: expected radiotap "
                f"({LINKTYPE_IEEE802_11_RADIOTAP}) or Prism ({LINKTYPE_PRISM_HEADER})"
            )
        for record in reader:
            if prism:
                header = parse_prism(record.data)
                timestamp_us = record.timestamp_us
                signal_dbm = header.signal_dbm
            else:
                header = parse_radiotap(record.data)
                timestamp_us = (
                    float(header.tsft_us)
                    if header.tsft_us is not None
                    else record.timestamp_us
                )
                signal_dbm = header.antenna_signal_dbm
            has_fcs = prism or header.has_fcs
            decoded = decode_dot11(record.data[header.length :], has_fcs=has_fcs)
            if skip_bad_fcs and not decoded.fcs_ok:
                continue
            yield CapturedFrame(
                timestamp_us=timestamp_us,
                frame=decoded.frame,
                rate_mbps=header.rate_mbps if header.rate_mbps else 1.0,
                signal_dbm=float(signal_dbm if signal_dbm is not None else -50),
                channel=header.channel or 6,
            )


def read_trace_pcap(
    source: str | Path | BinaryIO | bytes, skip_bad_fcs: bool = False
) -> list[CapturedFrame]:
    """Load a radiotap or Prism pcap fully into memory (batch pipeline)."""
    return list(iter_trace_pcap(source, skip_bad_fcs=skip_bad_fcs))
