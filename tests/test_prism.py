"""Tests for the Prism monitoring-header codec."""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.cli import main
from repro.dot11.capture import CapturedFrame
from repro.dot11.frames import Dot11Frame, FrameSubtype
from repro.dot11.mac import MacAddress
from repro.persistence import load_database
from repro.radiotap.pcap import (
    PcapError,
    PcapWriter,
    read_trace_pcap,
    write_trace_pcap,
    write_trace_pcap_prism,
)
from repro.radiotap.prism import (
    PRISM_HEADER_LEN,
    PrismError,
    build_prism,
    parse_prism,
)
from repro.traces.table import FrameTable

A = MacAddress.parse("00:13:e8:00:00:01")
B = MacAddress.parse("00:18:f8:00:00:02")


class TestHeaderCodec:
    def test_round_trip(self):
        raw = build_prism(
            mactime_us=123456,
            channel=11,
            rate_mbps=5.5,
            frame_length=1500,
            signal_dbm=-63,
            noise_dbm=-91,
            device_name="wlan1",
        )
        assert len(raw) == PRISM_HEADER_LEN
        header = parse_prism(raw)
        assert header.mactime_us == 123456
        assert header.channel == 11
        assert header.rate_mbps == 5.5
        assert header.frame_length == 1500
        assert header.signal_dbm == -63
        assert header.noise_dbm == -91
        assert header.device_name == "wlan1"

    def test_bad_msgcode(self):
        raw = bytearray(build_prism(1, 6, 54.0, 100))
        raw[0] = 0xFF
        with pytest.raises(PrismError):
            parse_prism(bytes(raw))

    def test_too_short(self):
        with pytest.raises(PrismError):
            parse_prism(b"\x00" * 50)

    def test_unencodable_rate(self):
        with pytest.raises(PrismError):
            build_prism(1, 6, 500.0, 100)

    def test_absent_items_are_none(self):
        header = parse_prism(build_prism(1, 6, 54.0, 100))
        # RSSI and SQ are marked absent by the builder.
        assert header.signal_dbm is not None
        assert header.rate_mbps == 54.0


class TestPrismPcap:
    def _frames(self, count: int = 5) -> list[CapturedFrame]:
        return [
            CapturedFrame(
                timestamp_us=10_000.0 * (i + 1),
                frame=Dot11Frame(
                    subtype=FrameSubtype.QOS_DATA,
                    size=400 + i,
                    addr1=B,
                    addr2=A,
                    addr3=B,
                ),
                rate_mbps=24.0,
                signal_dbm=-58.0,
                channel=6,
            )
            for i in range(count)
        ]

    def test_round_trip(self):
        frames = self._frames()
        buffer = io.BytesIO()
        count = write_trace_pcap_prism(buffer, frames)
        assert count == 5
        restored = read_trace_pcap(buffer.getvalue())
        assert len(restored) == 5
        for original, loaded in zip(frames, restored):
            assert loaded.sender == A
            assert loaded.size == original.size
            assert loaded.rate_mbps == original.rate_mbps
            assert loaded.channel == original.channel
            assert loaded.timestamp_us == pytest.approx(
                original.timestamp_us, abs=1.0
            )

    def test_rejects_other_linktypes(self):
        buffer = io.BytesIO()
        with PcapWriter(buffer, linktype=1) as writer:  # Ethernet
            writer.write_record(10.0, b"\x00" * 60)
        with pytest.raises(PcapError, match="linktype 1:"):
            read_trace_pcap(buffer.getvalue())

    def test_skip_bad_fcs_applies_to_prism(self):
        buffer = io.BytesIO()
        write_trace_pcap_prism(buffer, self._frames(3))
        raw = bytearray(buffer.getvalue())
        raw[-1] ^= 0xFF  # the last record's FCS
        assert len(read_trace_pcap(bytes(raw))) == 3
        kept = read_trace_pcap(bytes(raw), skip_bad_fcs=True)
        assert [c.size for c in kept] == [400, 401]

    def test_prism_and_radiotap_decode_to_equal_tables(self, small_office_trace):
        """One set of frames through both encapsulations: equal frames,
        and equal columns, flags, senders and frame-type keys."""
        frames = small_office_trace.frames
        radiotap, prism = io.BytesIO(), io.BytesIO()
        write_trace_pcap(radiotap, frames)
        write_trace_pcap_prism(prism, frames)
        from_radiotap = read_trace_pcap(radiotap.getvalue())
        from_prism = read_trace_pcap(prism.getvalue())
        assert len(from_prism) == len(frames)
        assert from_prism == from_radiotap
        expected = FrameTable.from_frames(from_radiotap)
        actual = FrameTable.from_frames(from_prism)
        for column in ("timestamp_us", "size", "rate_mbps", "sender_idx", "ftype_idx", "flags"):
            assert np.array_equal(getattr(actual, column), getattr(expected, column)), column
        assert actual.senders == expected.senders
        assert actual.ftype_keys == expected.ftype_keys

    def test_learn_from_prism_writes_the_radiotap_store(
        self, small_office_trace, tmp_path
    ):
        radiotap = tmp_path / "office.pcap"
        prism = tmp_path / "office-prism.pcap"
        write_trace_pcap(radiotap, small_office_trace.frames)
        write_trace_pcap_prism(prism, small_office_trace.frames)
        for pcap in (radiotap, prism):
            assert main(["learn", str(pcap), "--db", str(pcap.with_suffix(".db"))]) == 0
        expected = radiotap.with_suffix(".db")
        actual = prism.with_suffix(".db")
        for name in ("meta.json", "devices.jsonl", "matrices.npz"):
            assert (actual / name).read_bytes() == (expected / name).read_bytes()
        assert len(load_database(actual).database) >= 2

    def test_fingerprinting_from_prism_capture(self, small_office_trace):
        """The full pipeline works identically off Prism captures."""
        from repro.core import InterArrivalTime, SignatureBuilder

        buffer = io.BytesIO()
        write_trace_pcap_prism(buffer, small_office_trace.frames[:5000])
        restored = read_trace_pcap(buffer.getvalue())
        builder = SignatureBuilder(InterArrivalTime(), min_observations=50)
        signatures = builder.build_table(FrameTable.from_frames(restored))
        assert len(signatures) >= 2
