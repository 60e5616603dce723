"""The :class:`Trace` container and train/validation splitting.

A trace is an immutable, time-ordered capture plus metadata (name,
encryption, device-name mapping for ground truth).  Splitting and
windowing follow the paper's evaluation protocol: a training prefix
builds the reference database, the remainder is cut into fixed
detection windows (5 minutes in the paper) that each yield one
candidate signature per active device.

A trace is built either from frame objects (a pcap, a test fixture)
or, by :meth:`Trace.from_table`, over a columnar
:class:`~repro.traces.table.FrameTable` that already exists — a
simulation's capture, interned while it ran — in which case
:attr:`Trace.frames` is built only if something reads it.  Either way
the timestamp column is held **once** (extracted at construction,
where it also vectorizes the time-order check, or taken from the
table) and every cut — :meth:`Trace.slice_us`, :meth:`Trace.split`,
:meth:`Trace.windows` — is an ``np.searchsorted`` on it.  Sliced
traces share the parent's column views (and its
:class:`~repro.traces.table.FrameTable`, if built) and slice its
frames only when theirs are read.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from repro.dot11.capture import CapturedFrame
from repro.dot11.mac import MacAddress
from repro.traces.table import FrameTable, window_bounds


class Trace:
    """A time-ordered 802.11 capture with ground-truth metadata."""

    __slots__ = (
        "name",
        "encrypted",
        "device_names",
        "_frames",
        "_build_frames",
        "_stamps",
        "_table",
    )

    def __init__(
        self,
        frames: list[CapturedFrame],
        name: str = "",
        encrypted: bool = False,
        device_names: dict[MacAddress, str] | None = None,
    ) -> None:
        self.name = name
        self.encrypted = encrypted
        self.device_names = {} if device_names is None else device_names
        self._frames: list[CapturedFrame] | None = frames
        self._build_frames: Callable[[], list[CapturedFrame]] | None = None
        self._stamps = np.fromiter(
            (captured.timestamp_us for captured in frames),
            dtype=np.float64,
            count=len(frames),
        )
        #: Columnar view, built lazily by :meth:`table`.
        self._table: FrameTable | None = None
        # Same tolerance as the historical per-frame check: allow
        # sub-microsecond backwards jitter, reject real disorder.
        if self._stamps.size > 1 and float(np.min(np.diff(self._stamps))) < -1e-6:
            raise ValueError(f"trace {self.name!r} is not time-ordered")

    @classmethod
    def from_table(
        cls,
        table: FrameTable,
        frames: Callable[[], list[CapturedFrame]],
        name: str = "",
        encrypted: bool = False,
        device_names: dict[MacAddress, str] | None = None,
    ) -> "Trace":
        """A trace over an existing, time-ordered table.

        ``frames`` builds the same capture as frame objects; it is
        called at most once, the first time :attr:`frames` is read.
        The table is trusted to be time-ordered (a simulation's table
        is checked when it is built).
        """
        return cls._lazy(
            name,
            encrypted,
            {} if device_names is None else device_names,
            table.timestamp_us,
            table,
            frames,
        )

    @classmethod
    def _view(cls, parent: "Trace", lo: int, hi: int) -> "Trace":
        """A sub-trace sharing the parent's cached columns (no re-scan)."""
        return cls._lazy(
            parent.name,
            parent.encrypted,
            parent.device_names,
            parent._stamps[lo:hi],
            parent._table.slice_rows(lo, hi) if parent._table is not None else None,
            lambda: parent.frames[lo:hi],
        )

    @classmethod
    def _lazy(
        cls,
        name: str,
        encrypted: bool,
        device_names: dict[MacAddress, str],
        stamps: np.ndarray,
        table: FrameTable | None,
        build_frames: Callable[[], list[CapturedFrame]],
    ) -> "Trace":
        """A trace whose frames ``build_frames`` builds on first read."""
        trace = cls.__new__(cls)
        trace.name = name
        trace.encrypted = encrypted
        trace.device_names = device_names
        trace._frames = None
        trace._build_frames = build_frames
        trace._stamps = stamps
        trace._table = table
        return trace

    def __repr__(self) -> str:
        return f"<Trace {self.name!r} frames={len(self)} encrypted={self.encrypted}>"

    @property
    def frames(self) -> list[CapturedFrame]:
        """The captured frames (built on first read for a trace over a table)."""
        if self._frames is None:
            self._frames = self._build_frames()
            self._build_frames = None
        return self._frames

    def __len__(self) -> int:
        return len(self._stamps)

    def __iter__(self) -> Iterator[CapturedFrame]:
        return iter(self.frames)

    @property
    def start_us(self) -> float:
        """Timestamp of the first frame (0 for an empty trace)."""
        return float(self._stamps[0]) if self._stamps.size else 0.0

    @property
    def end_us(self) -> float:
        """Timestamp of the last frame (0 for an empty trace)."""
        return float(self._stamps[-1]) if self._stamps.size else 0.0

    @property
    def duration_s(self) -> float:
        """Observed span of the trace in seconds."""
        return (self.end_us - self.start_us) / 1e6

    def senders(self) -> set[MacAddress]:
        """All attributable senders appearing in the trace."""
        table = self.table()
        codes = np.unique(table.sender_idx[table.sender_idx >= 0])
        return {table.senders[code] for code in codes.tolist()}

    def frames_of(self, sender: MacAddress) -> list[CapturedFrame]:
        """All frames attributed to one sender."""
        return [c for c in self.frames if c.sender == sender]

    def table(self) -> FrameTable:
        """The trace as a columnar :class:`FrameTable` (built once).

        Slices taken *after* the first call share the parent table's
        columns as views, so windowing a tabled trace never re-interns.
        """
        if self._table is None:
            self._table = FrameTable.from_frames(self.frames, timestamps=self._stamps)
        return self._table

    # ------------------------------------------------------------------
    def slice_us(self, start_us: float, end_us: float) -> "Trace":
        """Sub-trace with timestamps in ``[start_us, end_us)``."""
        lo, hi = np.searchsorted(self._stamps, (start_us, end_us), side="left")
        return Trace._view(self, int(lo), int(hi))

    def split(self, training_s: float) -> "TraceSplit":
        """Split into a training prefix and a validation remainder.

        ``training_s`` is measured from the trace start, matching the
        paper's "first hour / first 20 minutes" protocol.
        """
        if training_s <= 0:
            raise ValueError(f"training duration must be positive: {training_s}")
        boundary = self.start_us + training_s * 1e6
        return TraceSplit(
            training=self.slice_us(self.start_us, boundary),
            validation=self.slice_us(boundary, self.end_us + 1.0),
        )

    def windows(self, window_s: float) -> Iterator["Trace"]:
        """Cut the trace into fixed-size detection windows.

        The last partial window is included — short candidate windows
        simply yield fewer observations and fall below the
        minimum-observation threshold naturally.  The final window is
        right-closed, so a last frame sitting exactly on a window
        boundary joins it instead of spawning a degenerate extra
        window beyond the trace span (see
        :func:`repro.traces.table.window_bounds`).
        """
        for lo, hi in window_bounds(self._stamps, window_s):
            yield Trace._view(self, lo, hi)

    # ------------------------------------------------------------------
    def to_pcap(self, path: str | Path) -> int:
        """Persist as a radiotap pcap; returns the frame count."""
        from repro.radiotap.pcap import write_trace_pcap

        return write_trace_pcap(path, self.frames)

    @classmethod
    def from_pcap(
        cls, path: str | Path, name: str = "", encrypted: bool = False
    ) -> "Trace":
        """Load a radiotap or Prism pcap from disk."""
        from repro.radiotap.pcap import read_trace_pcap

        return cls(frames=read_trace_pcap(path), name=name or str(path), encrypted=encrypted)


@dataclass(slots=True)
class TraceSplit:
    """Training/validation pair produced by :meth:`Trace.split`."""

    training: Trace
    validation: Trace
