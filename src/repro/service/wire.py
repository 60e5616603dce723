"""Columnar wire format for remote sensor ingest (DESIGN.md §9).

A sensor session is a one-way byte stream of length-prefixed,
checksummed **records**:

```
offset  size  field
0       4     magic  b"RPWF"
4       2     format version (little-endian u16, currently 2)
6       1     record type (1 HELLO, 2 CHUNK, 3 END)
7       1     reserved flags (0)
8       4     payload length (little-endian u32)
12      4     crc32 of the payload (little-endian u32)
16      n     payload
```

``HELLO`` and ``END`` carry a UTF-8 JSON object (session metadata and
final counters).  ``CHUNK`` carries one columnar
:class:`~repro.traces.table.FrameTable` chunk:

```
offset   size   field
0        4      header length h (little-endian u32)
4        h      UTF-8 JSON header: rows, senders (MAC integers,
                first-appearance order), ftype_keys
4+h      rows*8 timestamp_us  (little-endian float64)
...      rows*8 size          (little-endian float64)
...      rows*8 rate_mbps     (little-endian float64)
...      rows*8 sender_idx    (little-endian int64, -1 = ACK/CTS)
...      rows*8 ftype_idx     (little-endian int64)
...      rows   flags         (uint8, the FrameTable flag bits)
```

Columns are raw IEEE-754/two's-complement bytes, so
:func:`decode_chunk` reproduces :func:`encode_chunk`'s input **bit for
bit** — every timestamp, size, rate, intern code, flag byte and intern
tuple is identical (property-pinned in ``tests/test_wire.py``).  The
six columns are the whole table: everything the pipeline derives
(observations, signatures, events, the rogue-AP guard's own-frame
selection) is a pure function of them.

Corruption never passes silently: a wrong magic, an unsupported
version (version-1 records, which lack the flags column, included), a
length/checksum mismatch, or a stream that ends mid-record all raise
:class:`WireError` with the byte offset where decoding stopped.  So
does a chunk whose header the encoder could not have written (a row
count that is not a non-negative integer, senders that are not
distinct 48-bit MAC integers, frame-type keys that are not distinct
strings) or whose values a captured frame could not hold: an intern
code out of range, a timestamp or size that is not finite and
non-negative, or a rate that is not finite and positive.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import BinaryIO, Iterator

import numpy as np

from repro.dot11.mac import MacAddress
from repro.traces.table import FrameTable

#: Record framing magic ("RePro Wire Format").
MAGIC = b"RPWF"
#: Current wire format version.
WIRE_VERSION = 2

#: Record types.
RECORD_HELLO = 1
RECORD_CHUNK = 2
RECORD_END = 3

_HEADER = struct.Struct("<4sHBBII")
_U32 = struct.Struct("<I")

#: The six FrameTable columns, in wire order, with their wire dtypes.
_COLUMNS = (
    ("timestamp_us", "<f8"),
    ("size", "<f8"),
    ("rate_mbps", "<f8"),
    ("sender_idx", "<i8"),
    ("ftype_idx", "<i8"),
    ("flags", "u1"),
)
#: Bytes per row across all columns.
_ROW_BYTES = sum(np.dtype(dtype).itemsize for _, dtype in _COLUMNS)


class WireError(ValueError):
    """Malformed wire data (bad magic/version/length/checksum/values)."""


# -- record framing -----------------------------------------------------
def encode_record(record_type: int, payload: bytes) -> bytes:
    """Frame one payload as a length-prefixed, checksummed record."""
    if record_type not in (RECORD_HELLO, RECORD_CHUNK, RECORD_END):
        raise ValueError(f"unknown record type: {record_type}")
    header = _HEADER.pack(
        MAGIC, WIRE_VERSION, record_type, 0, len(payload), zlib.crc32(payload)
    )
    return header + payload


def read_record(stream: BinaryIO, offset: int = 0) -> tuple[int, bytes] | None:
    """Read one record; ``None`` at a clean end-of-stream.

    ``offset`` is only used to report *where* a malformed record was
    found.  A stream that ends inside a record header or payload is a
    truncation error, not a clean end.
    """
    header = stream.read(_HEADER.size)
    if not header:
        return None
    if len(header) < _HEADER.size:
        raise WireError(
            f"truncated record header at byte {offset}: "
            f"got {len(header)} of {_HEADER.size} bytes"
        )
    magic, version, record_type, _flags, length, checksum = _HEADER.unpack(header)
    if magic != MAGIC:
        raise WireError(f"bad magic at byte {offset}: {magic!r}")
    if version != WIRE_VERSION:
        raise WireError(
            f"unsupported wire version {version} at byte {offset} "
            f"(this build speaks version {WIRE_VERSION})"
        )
    if record_type not in (RECORD_HELLO, RECORD_CHUNK, RECORD_END):
        raise WireError(f"unknown record type {record_type} at byte {offset}")
    payload = stream.read(length)
    if len(payload) < length:
        raise WireError(
            f"truncated record payload at byte {offset}: "
            f"got {len(payload)} of {length} bytes"
        )
    if zlib.crc32(payload) != checksum:
        raise WireError(f"payload checksum mismatch at byte {offset}")
    return record_type, payload


def iter_records(stream: BinaryIO) -> Iterator[tuple[int, bytes]]:
    """All records of a stream, with offsets tracked for diagnostics."""
    offset = 0
    while True:
        record = read_record(stream, offset)
        if record is None:
            return
        offset += _HEADER.size + len(record[1])
        yield record


# -- JSON control payloads ----------------------------------------------
def encode_json(record_type: int, payload: dict) -> bytes:
    """Frame a JSON control payload (HELLO/END) as a record."""
    return encode_record(
        record_type, json.dumps(payload, sort_keys=True).encode("utf-8")
    )


def decode_json(payload: bytes) -> dict:
    """Parse a HELLO/END payload."""
    try:
        decoded = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise WireError(f"malformed control payload: {error}") from error
    if not isinstance(decoded, dict):
        raise WireError(f"control payload is not an object: {decoded!r}")
    return decoded


# -- chunk payloads -----------------------------------------------------
def encode_chunk(table: FrameTable) -> bytes:
    """Serialise one columnar chunk as a CHUNK record.

    The columns are written as raw little-endian bytes, so the encode →
    decode round trip is bit-identical.
    """
    header = json.dumps(
        {
            "rows": len(table),
            "senders": [sender.value for sender in table.senders],
            "ftype_keys": list(table.ftype_keys),
        },
        sort_keys=True,
    ).encode("utf-8")
    parts = [_U32.pack(len(header)), header]
    for name, dtype in _COLUMNS:
        column = np.ascontiguousarray(getattr(table, name), dtype=dtype)
        parts.append(column.tobytes())
    return encode_record(RECORD_CHUNK, b"".join(parts))


def decode_chunk(payload: bytes) -> FrameTable:
    """Rebuild the :class:`FrameTable` a CHUNK payload carries.

    Its six columns and two intern tuples are bit-identical to the
    encoder's input.  Columns are read-only zero-copy views onto the
    payload bytes — every downstream consumer only reads them.  A
    chunk whose values no captured frame could hold raises
    :class:`WireError` here, before any pipeline sees it.
    """
    if len(payload) < _U32.size:
        raise WireError("chunk payload shorter than its header length field")
    (header_length,) = _U32.unpack_from(payload)
    body = _U32.size + header_length
    if len(payload) < body:
        raise WireError(
            f"chunk header truncated: need {header_length} bytes, "
            f"have {len(payload) - _U32.size}"
        )
    try:
        header = json.loads(payload[_U32.size : body].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise WireError(f"malformed chunk header: {error}") from error
    if not isinstance(header, dict):
        raise WireError(f"chunk header is not an object: {header!r}")
    rows = header.get("rows")
    if type(rows) is not int or rows < 0:
        raise WireError(f"chunk header rows is not a non-negative integer: {rows!r}")
    values = _header_list(header, "senders", int)
    if values and not (min(values) >= 0 and max(values) < 1 << 48):
        raise WireError("chunk header senders holds a value that is not a 48-bit MAC")
    ftype_keys = tuple(_header_list(header, "ftype_keys", str))
    senders = tuple(map(MacAddress, values))
    expected = body + rows * _ROW_BYTES
    if len(payload) != expected:
        raise WireError(
            f"chunk column data length mismatch: expected {expected} "
            f"payload bytes for {rows} rows, got {len(payload)}"
        )
    columns = {}
    offset = body
    for name, dtype in _COLUMNS:
        columns[name] = np.frombuffer(payload, dtype=dtype, count=rows, offset=offset)
        offset += rows * np.dtype(dtype).itemsize
    if rows:
        _check_values(columns, len(senders), len(ftype_keys))
    return FrameTable(
        senders=senders,
        ftype_keys=ftype_keys,
        sender_values=np.array(values, dtype=np.int64),
        **columns,
    )


def _header_list(header: dict, name: str, kind: type) -> list:
    """The chunk header's list ``name``, refused with :class:`WireError`
    unless it is a list of distinct items of exactly type ``kind`` (so
    no ``bool`` passes for an ``int``)."""
    items = header.get(name)
    if not isinstance(items, list):
        raise WireError(f"chunk header {name} is not a list: {items!r}")
    if not set(map(type, items)) <= {kind}:
        bad = next(item for item in items if type(item) is not kind)
        raise WireError(
            f"chunk header {name} holds an entry that is not a "
            f"{kind.__name__}: {bad!r}"
        )
    if len(set(items)) != len(items):
        raise WireError(f"chunk header {name} lists an entry twice")
    return items


def _check_values(columns: dict, sender_count: int, ftype_count: int) -> None:
    """Refuse values a :class:`~repro.dot11.capture.CapturedFrame`
    could not hold: they would fail deep inside the pipeline instead."""
    sender_idx = columns["sender_idx"]
    if int(sender_idx.min()) < -1 or int(sender_idx.max()) >= sender_count:
        raise WireError("chunk sender_idx out of intern range")
    ftype_idx = columns["ftype_idx"]
    if int(ftype_idx.min()) < 0 or int(ftype_idx.max()) >= ftype_count:
        raise WireError("chunk ftype_idx out of intern range")
    for name in ("timestamp_us", "size"):
        column = columns[name]
        if not (np.isfinite(column).all() and (column >= 0.0).all()):
            raise WireError(f"chunk {name} must be finite and >= 0")
    rates = columns["rate_mbps"]
    if not (np.isfinite(rates).all() and (rates > 0.0).all()):
        raise WireError("chunk rate_mbps must be finite and > 0")
