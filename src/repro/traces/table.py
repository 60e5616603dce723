"""Columnar (struct-of-arrays) trace representation.

:class:`FrameTable` stores a captured frame sequence as parallel NumPy
columns — ``timestamp_us``, ``size``, ``rate_mbps`` — plus interned
integer codes for the sender MAC (``sender_idx``) and the frame-type
label (``ftype_idx``).  It is the ingest-side counterpart of the packed
reference matrices (DESIGN.md §3): every stage upstream of the
histogram — observation extraction, window cutting, signature binning —
can then run as whole-array NumPy operations instead of per-frame
Python dispatch (DESIGN.md §6).

Interning scheme: ``senders[sender_idx[i]]`` is frame ``i``'s sender;
unattributable frames (ACK/CTS, the paper's ``si = null``) carry the
sentinel ``-1`` so they still advance the channel clock in the
time-derived parameters without ever producing an observation.
``ftype_keys[ftype_idx[i]]`` is the histogram key.  Codes are assigned
in first-appearance order, so downstream dict orderings follow first
appearance in the capture.

A sixth column, ``flags`` (``uint8``), carries the MAC-header bits two
of the paper's frame rules read: :data:`RETRY` (Figure 4 keeps first
transmissions only), :data:`FROM_DS` (Section VII-B2 drops the data an
AP forwards) and :data:`GROUP_ADDRESSED` (the receiver's I/G bit;
Figure 7 keeps broadcast data only); the bit values live in
:mod:`repro.dot11.capture` and are re-exported here.  The table holds
nothing but columns and intern tuples, so a wire-decoded or
mask-selected chunk is as complete as one interned from frame objects.

Tables are cheap to slice: row slices are NumPy **views** onto the
parent's columns (zero copy) sharing the intern tuples, never copied
per window; :meth:`FrameTable.select` copies the rows of a mask.  A
slice keeps its parent's ``senders`` tuple, so the senders a slice
holds rows of are read from its codes (:meth:`FrameTable.active_senders`).
The senders' 48-bit MAC integers are also held as one ``int64`` array,
:attr:`FrameTable.sender_values`, computed once per intern tuple and
shared with every slice and selection: the live path keys its
per-device state by these integers, which hash in C, and compares them
as one vector (:meth:`FrameTable.sender_code`).

Frames become rows in one place, :class:`RowInterner`: the simulated
monitor's capture buffer appends through it as frames are decoded, and
:meth:`FrameTable.from_frames` runs frame objects (a pcap, a test
fixture) through it.

:func:`window_bounds` is the single implementation of the evaluation
protocol's tumbling windows, shared by :meth:`repro.traces.trace.Trace.windows`,
:meth:`FrameTable.windows` and the detection fast path: each cut is an
``np.searchsorted`` on the timestamp column — O(log n) per window
instead of the former O(n) stamp-list rebuild.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from repro.dot11.capture import FROM_DS, GROUP_ADDRESSED, RETRY, CapturedFrame
from repro.dot11.frames import Dot11Frame, FrameSubtype
from repro.dot11.mac import MacAddress


class TableObservations(NamedTuple):
    """One parameter's vectorized observation batch over a table.

    Rows are aligned across the four arrays and appear in frame order,
    with ``sender_idx``/``ftype_idx`` coded against the source table's
    intern tuples.  ``positions`` holds each observation's row
    index in the source table, which is what lets a window slice of a
    *whole-trace* observation batch reproduce per-window extraction
    (the shift-and-mask argument in DESIGN.md §6).
    """

    sender_idx: np.ndarray
    ftype_idx: np.ndarray
    values: np.ndarray
    positions: np.ndarray


def window_bounds(
    stamps: np.ndarray, window_s: float
) -> Iterator[tuple[int, int]]:
    """Frame-index ranges of the tumbling detection windows.

    Windows are ``[start, start + step)`` except the final one, which
    is right-**closed**: a last frame sitting exactly on a window
    boundary belongs to the final regular window instead of spawning a
    degenerate extra window beyond the trace span.  An empty trace
    yields one empty window, matching the historical contract.
    """
    if not window_s > 0:
        raise ValueError(f"window size must be positive: {window_s}")
    step = window_s * 1e6
    count = len(stamps)
    if count == 0:
        yield (0, 0)
        return
    start = float(stamps[0])
    last = float(stamps[-1])
    while True:
        end = start + step
        if end >= last:
            yield int(np.searchsorted(stamps, start, side="left")), count
            return
        lo, hi = np.searchsorted(stamps, (start, end), side="left")
        yield int(lo), int(hi)
        start = end


class FrameTable:
    """A captured frame sequence as parallel columns.

    Build one with :meth:`from_frames` or a :class:`RowInterner` (a
    trace or a simulation hands out its own: ``Trace.table()``,
    ``SimulationResult.table()``); slice it with
    :meth:`slice_rows` / :meth:`slice_us` / :meth:`windows` — all views
    — or copy a row subset with :meth:`select`.  A table built from bare
    columns without ``flags`` gets an all-zero flags column, and one
    built without ``sender_values`` computes them on first use.
    """

    __slots__ = (
        "timestamp_us",
        "size",
        "rate_mbps",
        "sender_idx",
        "ftype_idx",
        "flags",
        "senders",
        "ftype_keys",
        "_sender_values",
    )

    def __init__(
        self,
        timestamp_us: np.ndarray,
        size: np.ndarray,
        rate_mbps: np.ndarray,
        sender_idx: np.ndarray,
        ftype_idx: np.ndarray,
        senders: tuple[MacAddress, ...],
        ftype_keys: tuple[str, ...],
        flags: np.ndarray | None = None,
        sender_values: np.ndarray | None = None,
    ) -> None:
        self.timestamp_us = timestamp_us
        self.size = size
        self.rate_mbps = rate_mbps
        self.sender_idx = sender_idx
        self.ftype_idx = ftype_idx
        self.flags = (
            np.zeros(timestamp_us.shape[0], dtype=np.uint8) if flags is None else flags
        )
        self.senders = senders
        self.ftype_keys = ftype_keys
        self._sender_values = sender_values

    # -- construction --------------------------------------------------
    @classmethod
    def from_frames(cls, frames: Iterable[CapturedFrame]) -> "FrameTable":
        """Intern a frame sequence into columns (through :class:`RowInterner`)."""
        interner = RowInterner()
        append = interner.append
        for c in frames:
            append(c.timestamp_us, c.frame, c.rate_mbps, c.signal_dbm, c.channel)
        return interner.table(interner.take())

    # -- basic protocol ------------------------------------------------
    def __len__(self) -> int:
        return self.timestamp_us.shape[0]

    def __repr__(self) -> str:
        return (
            f"<FrameTable n={len(self)} senders={len(self.senders)} "
            f"ftypes={len(self.ftype_keys)}>"
        )

    @property
    def start_us(self) -> float:
        """Timestamp of the first row (0 for an empty table)."""
        return float(self.timestamp_us[0]) if len(self) else 0.0

    @property
    def end_us(self) -> float:
        """Timestamp of the last row (0 for an empty table)."""
        return float(self.timestamp_us[-1]) if len(self) else 0.0

    @property
    def sender_values(self) -> np.ndarray:
        """The senders' MAC integers: ``sender_values[code] ==
        senders[code].value``, as one ``int64`` array shared by every
        table over the same intern tuple."""
        values = self._sender_values
        if values is None:
            values = self._sender_values = np.fromiter(
                (sender.value for sender in self.senders),
                dtype=np.int64,
                count=len(self.senders),
            )
        return values

    # -- row subsets ---------------------------------------------------
    def slice_rows(self, lo: int, hi: int) -> "FrameTable":
        """Row range ``[lo, hi)`` as a zero-copy view table.

        Column slices are NumPy views; the intern tuples (and
        :attr:`sender_values`) are shared with the parent.
        """
        return FrameTable(
            timestamp_us=self.timestamp_us[lo:hi],
            size=self.size[lo:hi],
            rate_mbps=self.rate_mbps[lo:hi],
            sender_idx=self.sender_idx[lo:hi],
            ftype_idx=self.ftype_idx[lo:hi],
            senders=self.senders,
            ftype_keys=self.ftype_keys,
            flags=self.flags[lo:hi],
            sender_values=self.sender_values,
        )

    def select(self, mask: np.ndarray) -> "FrameTable":
        """The rows of a boolean mask, in order, as a standalone table.

        The columns are copies; the intern tuples (and
        :attr:`sender_values`) are shared with the parent, so codes keep
        their meaning.
        """
        return FrameTable(
            timestamp_us=self.timestamp_us[mask],
            size=self.size[mask],
            rate_mbps=self.rate_mbps[mask],
            sender_idx=self.sender_idx[mask],
            ftype_idx=self.ftype_idx[mask],
            senders=self.senders,
            ftype_keys=self.ftype_keys,
            flags=self.flags[mask],
            sender_values=self.sender_values,
        )

    def slice_us(self, start_us: float, end_us: float) -> "FrameTable":
        """Rows with timestamps in ``[start_us, end_us)`` (a view)."""
        lo, hi = np.searchsorted(self.timestamp_us, (start_us, end_us), side="left")
        return self.slice_rows(int(lo), int(hi))

    def windows(self, window_s: float) -> Iterator["FrameTable"]:
        """Tumbling detection windows as view tables.

        Same boundary semantics as :meth:`repro.traces.trace.Trace.windows`
        (both delegate to :func:`window_bounds`).
        """
        for lo, hi in window_bounds(self.timestamp_us, window_s):
            yield self.slice_rows(lo, hi)

    # -- column helpers ------------------------------------------------
    def active_senders(self) -> set[MacAddress]:
        """The attributable senders with at least one row in this table.

        Read from the sender codes present, not from :attr:`senders`,
        which a slice shares with its parent.
        """
        return {self.senders[code] for code in self.sender_codes().tolist()}

    def sender_codes(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """The sender codes present in rows ``[lo, hi)``, ascending.

        Unattributable rows (``-1``) are left out.  One scatter into a
        flag per intern code, which is several times faster than a sort
        or hash based ``np.unique`` on a chunk's rows.
        """
        present = np.zeros(len(self.senders) + 1, dtype=bool)
        # The sentinel -1 marks the spare last flag, which is dropped.
        present[self.sender_idx[lo:hi]] = True
        return np.flatnonzero(present[:-1])

    def sender_code(self, sender: MacAddress) -> int:
        """Intern code of one sender (-1 if it never transmitted): its
        first index in :attr:`senders`, found with one vector compare."""
        hits = np.flatnonzero(self.sender_values == sender.value)
        return int(hits[0]) if hits.size else -1

    def mask_ftypes(self, labels: Iterable[str]) -> np.ndarray:
        """Boolean row mask selecting the given frame-type labels."""
        wanted = set(labels)
        codes = [i for i, key in enumerate(self.ftype_keys) if key in wanted]
        if not codes:
            return np.zeros(len(self), dtype=bool)
        return np.isin(self.ftype_idx, np.asarray(codes, dtype=np.int64))


class RowInterner:
    """Frames as interned table rows: the one place frames become rows.

    :meth:`append` records one frame as a row — timestamp, size, rate,
    signal, the ``flags`` bits, the sender and frame-type codes, the
    channel and the frame itself — assigning codes at first appearance,
    in append order.  :meth:`take` hands over the rows appended since
    the last take and keeps the codes, so tables of consecutive takes
    code the same sender alike; :meth:`table` turns rows into a
    :class:`FrameTable` with the intern tuples as they stand.  The
    signal, channel and frame stay in the rows for callers that
    rebuild :class:`~repro.dot11.capture.CapturedFrame` objects.
    """

    __slots__ = ("rows", "senders", "subtypes", "_sender_codes", "_ftype_codes")

    def __init__(self) -> None:
        #: ``(timestamp_us, size, rate_mbps, signal_dbm, flags,
        #: sender_code, ftype_code, channel, frame)`` per frame.
        self.rows: list[tuple] = []
        #: Interned senders and frame subtypes, in first-appearance order.
        self.senders: list[MacAddress] = []
        self.subtypes: list[FrameSubtype] = []
        # Keyed by the MAC's integer and the subtype's name: both hash
        # in C, where a MacAddress or an enum member hashes in Python.
        self._sender_codes: dict[int, int] = {}
        self._ftype_codes: dict[str, int] = {}

    def append(
        self,
        timestamp_us: float,
        frame: Dot11Frame,
        rate_mbps: float,
        signal_dbm: float,
        channel: int,
    ) -> None:
        """Record one frame as a row."""
        sender = frame.addr2
        if sender is None:
            sender_code = -1
        else:
            sender_code = self._sender_codes.get(sender.value)
            if sender_code is None:
                sender_code = self._sender_codes[sender.value] = len(self.senders)
                self.senders.append(sender)
        subtype = frame.subtype
        ftype_code = self._ftype_codes.get(subtype._name_)
        if ftype_code is None:
            ftype_code = self._ftype_codes[subtype._name_] = len(self.subtypes)
            self.subtypes.append(subtype)
        flags = (
            (RETRY if frame.retry else 0)
            | (FROM_DS if frame.from_ds else 0)
            | (GROUP_ADDRESSED if frame.addr1.is_multicast else 0)
        )
        self.rows.append(
            (
                timestamp_us,
                frame.size,
                rate_mbps,
                signal_dbm,
                flags,
                sender_code,
                ftype_code,
                channel,
                frame,
            )
        )

    def take(self) -> list[tuple]:
        """The rows appended since the last take (cleared; codes kept)."""
        rows, self.rows = self.rows, []
        return rows

    def table(self, rows: list[tuple]) -> FrameTable:
        """``rows`` as a :class:`FrameTable` over the current intern tuples."""
        codes = self._sender_codes
        return FrameTable(
            timestamp_us=row_column(rows, 0, np.float64),
            size=row_column(rows, 1, np.float64),
            rate_mbps=row_column(rows, 2, np.float64),
            sender_idx=row_column(rows, 5, np.int64),
            ftype_idx=row_column(rows, 6, np.int64),
            senders=tuple(self.senders),
            ftype_keys=tuple(subtype.label for subtype in self.subtypes),
            flags=row_column(rows, 4, np.uint8),
            # The code dict is keyed by MAC integer in code order.
            sender_values=np.fromiter(codes, dtype=np.int64, count=len(codes)),
        )


def row_column(rows: list[tuple], index: int, dtype) -> np.ndarray:
    """Field ``index`` of :class:`RowInterner` rows as one column."""
    return np.fromiter(map(itemgetter(index), rows), dtype=dtype, count=len(rows))
