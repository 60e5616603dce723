"""Unit tests for the pcap container and trace persistence."""

from __future__ import annotations

import io
import struct

import pytest

from repro.dot11.capture import CapturedFrame
from repro.dot11.frames import Dot11Frame, FrameSubtype, ack_frame
from repro.dot11.mac import MacAddress
from repro.radiotap.dot11_codec import encode_dot11
from repro.radiotap.pcap import (
    LINKTYPE_IEEE802_11_RADIOTAP,
    PcapError,
    PcapReader,
    PcapWriter,
    read_trace_pcap,
    write_trace_pcap,
)
from repro.radiotap.writer import build_radiotap

A = MacAddress.parse("00:13:e8:00:00:01")
B = MacAddress.parse("00:18:f8:00:00:02")


def _sample_frames(count: int = 5) -> list[CapturedFrame]:
    frames = []
    for index in range(count):
        frame = Dot11Frame(
            subtype=FrameSubtype.QOS_DATA,
            size=200 + index,
            addr1=B,
            addr2=A,
            addr3=B,
            seq=index,
        )
        frames.append(
            CapturedFrame(
                timestamp_us=1000.0 * (index + 1),
                frame=frame,
                rate_mbps=24.0,
                signal_dbm=-55.0,
                channel=6,
            )
        )
    return frames


class TestRawContainer:
    def test_global_header(self):
        buffer = io.BytesIO()
        PcapWriter(buffer).close()
        raw = buffer.getvalue()
        assert len(raw) == 24
        magic, major, minor = struct.unpack_from("<IHH", raw)
        assert magic == 0xA1B2C3D4
        assert (major, minor) == (2, 4)

    def test_record_round_trip(self):
        buffer = io.BytesIO()
        with PcapWriter(buffer) as writer:
            writer.write_record(1_500_000.0, b"abcdef")
            writer.write_record(2_500_000.0, b"xyz")
        reader = PcapReader(buffer.getvalue())
        records = list(reader)
        assert len(records) == 2
        assert records[0].data == b"abcdef"
        assert records[0].ts_sec == 1 and records[0].ts_usec == 500_000
        assert records[1].timestamp_us == pytest.approx(2_500_000.0)

    def test_linktype_recorded(self):
        buffer = io.BytesIO()
        PcapWriter(buffer, linktype=105).close()
        assert PcapReader(buffer.getvalue()).linktype == 105

    def test_bad_magic(self):
        with pytest.raises(PcapError):
            PcapReader(b"\x00" * 24)

    def test_truncated_global_header(self):
        with pytest.raises(PcapError):
            PcapReader(b"\xd4\xc3\xb2\xa1")

    def test_truncated_record_body(self):
        buffer = io.BytesIO()
        with PcapWriter(buffer) as writer:
            writer.write_record(0.0, b"abcdef")
        raw = buffer.getvalue()[:-3]
        with pytest.raises(PcapError):
            list(PcapReader(raw))

    def test_negative_timestamp_rejected(self):
        writer = PcapWriter(io.BytesIO())
        with pytest.raises(PcapError):
            writer.write_record(-1.0, b"x")

    def test_snaplen_truncation(self):
        buffer = io.BytesIO()
        with PcapWriter(buffer, snaplen=4) as writer:
            writer.write_record(0.0, b"abcdefgh")
        record = next(iter(PcapReader(buffer.getvalue())))
        assert record.data == b"abcd"
        assert record.orig_len == 8


class TestTracePersistence:
    def test_round_trip(self):
        frames = _sample_frames()
        buffer = io.BytesIO()
        count = write_trace_pcap(buffer, frames)
        assert count == len(frames)
        back = read_trace_pcap(buffer.getvalue())
        assert len(back) == len(frames)
        for original, loaded in zip(frames, back):
            assert loaded.timestamp_us == pytest.approx(original.timestamp_us, abs=1.0)
            assert loaded.rate_mbps == original.rate_mbps
            assert loaded.sender == A
            assert loaded.size == original.size
            assert loaded.channel == original.channel

    def test_anonymous_frames_survive(self):
        frames = [
            CapturedFrame(timestamp_us=100.0, frame=ack_frame(A), rate_mbps=24.0)
        ]
        buffer = io.BytesIO()
        write_trace_pcap(buffer, frames)
        back = read_trace_pcap(buffer.getvalue())
        assert back[0].sender is None
        assert back[0].subtype is FrameSubtype.ACK

    def test_wrong_linktype_rejected(self):
        buffer = io.BytesIO()
        with PcapWriter(buffer, linktype=1) as writer:
            writer.write_record(0.0, b"\x00" * 20)
        with pytest.raises(PcapError):
            read_trace_pcap(buffer.getvalue())

    def test_file_round_trip(self, tmp_path):
        frames = _sample_frames(3)
        path = tmp_path / "capture.pcap"
        write_trace_pcap(path, frames)
        assert read_trace_pcap(path)[2].size == frames[2].size

    def test_linktype_constant(self):
        assert LINKTYPE_IEEE802_11_RADIOTAP == 127


class TestRadiotapFcsFlag:
    """A radiotap record holds the trailing FCS only when its Flags FCS
    bit is set: without it the frame keeps its full size and is not
    refused as a bad FCS."""

    @pytest.mark.parametrize("fcs_at_end", [True, False])
    def test_frame_read_as_the_flag_says(self, fcs_at_end):
        (sample,) = _sample_frames(1)
        data = encode_dot11(sample.frame)
        if not fcs_at_end:
            data = data[:-4]  # captured without the FCS
        buffer = io.BytesIO()
        with PcapWriter(buffer) as writer:
            radiotap = build_radiotap(fcs_at_end=fcs_at_end)
            writer.write_record(1000.0, radiotap + data)
        (loaded,) = read_trace_pcap(buffer.getvalue(), skip_bad_fcs=True)
        written = io.BytesIO()
        write_trace_pcap(written, [sample])
        (expected,) = read_trace_pcap(written.getvalue())
        assert loaded.size == sample.size == 200
        assert loaded.frame == expected.frame
