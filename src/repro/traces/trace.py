"""The :class:`Trace` container and train/validation splitting.

A trace is an immutable, time-ordered list of captured frames plus
metadata (name, encryption, device-name mapping for ground truth).
Splitting and windowing follow the paper's evaluation protocol: a
training prefix builds the reference database, the remainder is cut
into fixed detection windows (5 minutes in the paper) that each yield
one candidate signature per active device.

The frames list is treated as immutable, so the timestamp column is
extracted **once** (at construction, where it also vectorizes the
time-order check) and every cut — :meth:`Trace.slice_us`,
:meth:`Trace.split`, :meth:`Trace.windows` — is an ``np.searchsorted``
on that cached array plus a frame-list slice: O(log n) per window
instead of the former per-cut O(n) stamp-list rebuild.  Sliced traces
share the parent's column views (and its columnar
:class:`~repro.traces.table.FrameTable`, if built) without re-scanning
their frames.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.dot11.capture import CapturedFrame
from repro.dot11.mac import MacAddress
from repro.traces.table import FrameTable, window_bounds


@dataclass
class Trace:
    """A time-ordered 802.11 capture with ground-truth metadata."""

    frames: list[CapturedFrame]
    name: str = ""
    encrypted: bool = False
    device_names: dict[MacAddress, str] = field(default_factory=dict)
    #: Cached timestamp column (µs), shared with slices as a view.
    _stamps: np.ndarray = field(
        init=False, default=None, repr=False, compare=False
    )
    #: Cached columnar view, built lazily by :meth:`table`.
    _table: FrameTable | None = field(
        init=False, default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self._stamps = np.fromiter(
            (captured.timestamp_us for captured in self.frames),
            dtype=np.float64,
            count=len(self.frames),
        )
        self._table = None
        # Same tolerance as the historical per-frame check: allow
        # sub-microsecond backwards jitter, reject real disorder.
        if self._stamps.size > 1 and float(np.min(np.diff(self._stamps))) < -1e-6:
            raise ValueError(f"trace {self.name!r} is not time-ordered")

    @classmethod
    def _view(cls, parent: "Trace", lo: int, hi: int) -> "Trace":
        """A sub-trace sharing the parent's cached columns (no re-scan)."""
        trace = cls.__new__(cls)
        trace.frames = parent.frames[lo:hi]
        trace.name = parent.name
        trace.encrypted = parent.encrypted
        trace.device_names = parent.device_names
        trace._stamps = parent._stamps[lo:hi]
        trace._table = (
            parent._table.slice_rows(lo, hi) if parent._table is not None else None
        )
        return trace

    def __len__(self) -> int:
        return len(self.frames)

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
        return {c.sender for c in self.frames if c.sender is not None}

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
