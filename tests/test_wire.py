"""Wire format round-trip and rejection tests (DESIGN.md §9).

The encode → decode round trip must be **bit-identical** for any
columnar chunk — including ACK/CTS ``-1`` sender sentinels, the flags
column and empty chunks — and every way a record can be damaged (bad
magic, wrong version, flipped payload bytes, truncation at any byte,
values no captured frame could hold) must raise
:class:`~repro.service.wire.WireError` instead of yielding a wrong
table.
"""

from __future__ import annotations

import io
import json
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dot11.mac import MacAddress, vendor_mac
from repro.service.wire import (
    MAGIC,
    RECORD_CHUNK,
    RECORD_END,
    RECORD_HELLO,
    WIRE_VERSION,
    WireError,
    decode_chunk,
    decode_json,
    encode_chunk,
    encode_json,
    encode_record,
    iter_records,
    read_record,
)
from repro.traces.table import FrameTable
from tests.test_streaming_chunked import synth_frames


_COLUMN_NAMES = ("timestamp_us", "size", "rate_mbps", "sender_idx", "ftype_idx", "flags")


def wire_round_trip(table: FrameTable) -> FrameTable:
    """Encode a table as a CHUNK record and decode it back."""
    record = read_record(io.BytesIO(encode_chunk(table)))
    assert record is not None and record[0] == RECORD_CHUNK
    return decode_chunk(record[1])


def assert_tables_bit_identical(left: FrameTable, right: FrameTable) -> None:
    """Columns byte-for-byte equal, intern tuples equal."""
    assert len(left) == len(right)
    for name in _COLUMN_NAMES:
        mine = np.ascontiguousarray(getattr(left, name))
        theirs = np.ascontiguousarray(getattr(right, name))
        assert mine.tobytes() == theirs.tobytes(), f"column {name} differs"
    assert left.senders == right.senders
    assert left.ftype_keys == right.ftype_keys


# -- arbitrary-table strategy -------------------------------------------
_finite = st.floats(
    min_value=0.0, max_value=1e12, allow_nan=False, allow_infinity=False
)
#: Rates a captured frame can hold: finite and strictly positive.
_rates = st.floats(
    min_value=0.0,
    max_value=1e12,
    exclude_min=True,
    allow_nan=False,
    allow_infinity=False,
)


@st.composite
def frame_tables(draw) -> FrameTable:
    """Arbitrary columnar chunks: empty tables and -1 sentinels included."""
    rows = draw(st.integers(min_value=0, max_value=60))
    sender_count = draw(st.integers(min_value=1, max_value=5))
    ftype_count = draw(st.integers(min_value=1, max_value=4))
    deltas = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=5e4, allow_nan=False),
            min_size=rows,
            max_size=rows,
        )
    )
    stamps = np.cumsum(np.asarray(deltas, dtype=np.float64)) + 1_000.0
    sizes = np.asarray(
        draw(st.lists(_finite, min_size=rows, max_size=rows)), dtype=np.float64
    )
    rates = np.asarray(
        draw(st.lists(_rates, min_size=rows, max_size=rows)), dtype=np.float64
    )
    sender_idx = np.asarray(
        draw(
            st.lists(
                st.integers(min_value=-1, max_value=sender_count - 1),
                min_size=rows,
                max_size=rows,
            )
        ),
        dtype=np.int64,
    )
    ftype_idx = np.asarray(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=ftype_count - 1),
                min_size=rows,
                max_size=rows,
            )
        ),
        dtype=np.int64,
    )
    flags = np.asarray(
        draw(st.lists(st.integers(0, 255), min_size=rows, max_size=rows)),
        dtype=np.uint8,
    )
    senders = tuple(vendor_mac("00:13:e8", i + 1) for i in range(sender_count))
    ftype_keys = tuple(f"FType{i}" for i in range(ftype_count))
    return FrameTable(
        timestamp_us=stamps if rows else np.empty(0, dtype=np.float64),
        size=sizes,
        rate_mbps=rates,
        sender_idx=sender_idx,
        ftype_idx=ftype_idx,
        senders=senders,
        ftype_keys=ftype_keys,
        flags=flags,
    )


class TestChunkRoundTrip:
    @settings(max_examples=120, deadline=None)
    @given(frame_tables())
    def test_arbitrary_tables_round_trip_bit_identically(self, table):
        assert_tables_bit_identical(wire_round_trip(table), table)

    def test_realistic_capture_round_trips(self):
        table = FrameTable.from_frames(synth_frames(count=600, seed=11))
        assert -1 in table.sender_idx  # ACK sentinels present
        record = read_record(io.BytesIO(encode_chunk(table)))
        assert_tables_bit_identical(decode_chunk(record[1]), table)

    def test_empty_chunk_round_trips(self):
        table = FrameTable.from_frames([])
        record = read_record(io.BytesIO(encode_chunk(table)))
        decoded = decode_chunk(record[1])
        assert len(decoded) == 0
        assert_tables_bit_identical(decoded, table)

    def test_decoded_table_carries_the_flags(self):
        """A decoded chunk is as complete as the interned one: its
        columns, flags included, equal the frames' fields."""
        from tests.test_table import assert_columns_match

        frames = synth_frames(count=50)
        frames[3] = replace(frames[3], frame=replace(frames[3].frame, retry=True))
        decoded = wire_round_trip(FrameTable.from_frames(frames))
        assert decoded.flags.any()
        assert_columns_match(decoded, frames)


class TestControlRecords:
    def test_hello_and_end_round_trip(self):
        stream = io.BytesIO(
            encode_json(RECORD_HELLO, {"sensor": "roof-3", "resume": True})
            + encode_json(RECORD_END, {"frames": 12, "chunks": 2})
        )
        records = list(iter_records(stream))
        assert [rtype for rtype, _ in records] == [RECORD_HELLO, RECORD_END]
        assert decode_json(records[0][1]) == {"sensor": "roof-3", "resume": True}
        assert decode_json(records[1][1]) == {"frames": 12, "chunks": 2}

    def test_non_object_control_payload_rejected(self):
        with pytest.raises(WireError, match="not an object"):
            decode_json(b"[1, 2]")


def _column_offset(payload: bytes, rows: int, column: str) -> int:
    """Byte offset of a column's first value inside a CHUNK payload."""
    (header_length,) = struct.unpack_from("<I", payload)
    offset = 4 + header_length
    for name in _COLUMN_NAMES:
        if name == column:
            return offset
        offset += rows * (1 if name == "flags" else 8)
    raise KeyError(column)


class TestRejection:
    def _chunk_record(self) -> bytes:
        return encode_chunk(FrameTable.from_frames(synth_frames(count=40)))

    def test_bad_magic(self):
        record = bytearray(self._chunk_record())
        record[:4] = b"XXXX"
        with pytest.raises(WireError, match="bad magic"):
            read_record(io.BytesIO(bytes(record)))

    def test_unsupported_version(self):
        record = bytearray(self._chunk_record())
        record[4] = WIRE_VERSION + 1
        with pytest.raises(WireError, match="unsupported wire version"):
            read_record(io.BytesIO(bytes(record)))

    def test_unknown_record_type(self):
        record = bytearray(self._chunk_record())
        record[6] = 9
        with pytest.raises(WireError, match="unknown record type"):
            read_record(io.BytesIO(bytes(record)))

    def test_corrupted_payload_fails_checksum(self):
        record = bytearray(self._chunk_record())
        record[-1] ^= 0xFF
        with pytest.raises(WireError, match="checksum mismatch"):
            read_record(io.BytesIO(bytes(record)))

    @pytest.mark.parametrize("keep", [1, 8, 15, 16, 40])
    def test_truncation_anywhere_is_detected(self, keep):
        record = self._chunk_record()
        assert keep < len(record)
        with pytest.raises(WireError, match="truncated"):
            read_record(io.BytesIO(record[:keep]))

    def test_clean_end_of_stream_is_none(self):
        assert read_record(io.BytesIO(b"")) is None

    def test_chunk_payload_length_mismatch(self):
        table = FrameTable.from_frames(synth_frames(count=30))
        record = read_record(io.BytesIO(encode_chunk(table)))
        payload = record[1]
        with pytest.raises(WireError, match="length mismatch"):
            decode_chunk(payload[:-8])

    def test_chunk_intern_range_checked(self):
        table = FrameTable.from_frames(synth_frames(count=30))
        record = read_record(io.BytesIO(encode_chunk(table)))
        payload = bytearray(record[1])
        # Point the first sender_idx value past the intern tuple.
        offset = _column_offset(payload, len(table), "sender_idx")
        payload[offset : offset + 8] = (10**6).to_bytes(8, "little")
        with pytest.raises(WireError, match="intern range"):
            decode_chunk(bytes(payload))

    @pytest.mark.parametrize(
        "column, value",
        [
            ("timestamp_us", float("nan")),
            ("timestamp_us", float("inf")),
            ("timestamp_us", float("-inf")),
            ("timestamp_us", -1.0),
            ("size", float("nan")),
            ("size", float("inf")),
            ("size", float("-inf")),
            ("size", -1.0),
            ("rate_mbps", float("nan")),
            ("rate_mbps", float("inf")),
            ("rate_mbps", float("-inf")),
            ("rate_mbps", -1.0),
            ("rate_mbps", 0.0),
        ],
    )
    def test_chunk_values_checked(self, column, value):
        """Values a captured frame refuses are refused at decode, not
        deep inside a sensor's ingest worker."""
        table = FrameTable.from_frames(synth_frames(count=30))
        record = read_record(io.BytesIO(encode_chunk(table)))
        payload = bytearray(record[1])
        offset = _column_offset(payload, len(table), column) + 8 * 7
        payload[offset : offset + 8] = struct.pack("<d", value)
        with pytest.raises(WireError, match=column):
            decode_chunk(bytes(payload))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("rows", "30"),
            ("rows", 30.0),
            ("senders", "12"),
            ("senders", [1.5]),
            ("senders", [True]),
            ("senders", ["x"]),
            ("senders", [1 << 60]),
            ("senders", [-1]),
            ("senders", [7, 7]),
            ("ftype_keys", "Data"),
            ("ftype_keys", [1]),
            ("ftype_keys", ["Data", "Data"]),
        ],
    )
    def test_chunk_header_checked(self, field, value):
        """A header the encoder never writes is refused with a
        ``WireError`` naming the field, before any column is read."""
        table = FrameTable.from_frames(synth_frames(count=30))
        payload = read_record(io.BytesIO(encode_chunk(table)))[1]
        (length,) = struct.unpack_from("<I", payload)
        header = json.loads(payload[4 : 4 + length])
        header[field] = value
        text = json.dumps(header).encode("utf-8")
        with pytest.raises(WireError, match=f"chunk header {field}"):
            decode_chunk(struct.pack("<I", len(text)) + text + payload[4 + length :])

    def test_version_1_record_refused(self):
        record = bytearray(self._chunk_record())
        record[4:6] = (1).to_bytes(2, "little")
        with pytest.raises(WireError, match="unsupported wire version 1"):
            read_record(io.BytesIO(bytes(record)))

    def test_encode_record_rejects_unknown_type(self):
        with pytest.raises(ValueError, match="unknown record type"):
            encode_record(7, b"")

    def test_magic_constant_is_four_bytes(self):
        assert len(MAGIC) == 4
