"""The :class:`Trace` container and train/validation splitting.

A trace is an immutable, time-ordered capture plus metadata (name,
encryption, device-name mapping for ground truth).  Splitting and
windowing follow the paper's evaluation protocol: a training prefix
builds the reference database, the remainder is cut into fixed
detection windows (5 minutes in the paper) that each yield one
candidate signature per active device.

A trace holds its capture as a columnar
:class:`~repro.traces.table.FrameTable`, and everything between the
edges reads that table: signatures, the evaluation, streaming replay,
statistics.  A simulation hands its table straight to the constructor;
:meth:`Trace.from_frames` interns frame objects once (a pcap, a test
fixture), and :meth:`Trace.from_pcap` keeps only the table, decoding
the file again if its frames are read.  :attr:`Trace.frames` is built
only when something reads it — writing a pcap, or an attack helper
rewriting frames.  Every cut —
:meth:`Trace.slice_us`, :meth:`Trace.split`, :meth:`Trace.windows` — is
an ``np.searchsorted`` on the timestamp column, and a sliced trace
holds a view of its parent's table and slices the parent's frames only
when its own are read.
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
    """A time-ordered 802.11 capture with ground-truth metadata.

    ``table`` is the capture's columns, trusted to be time-ordered;
    ``frames`` builds the same capture as frame objects and is called
    at most once, the first time :attr:`frames` is read.
    """

    __slots__ = (
        "name",
        "encrypted",
        "device_names",
        "_table",
        "_frames",
        "_build_frames",
    )

    def __init__(
        self,
        table: FrameTable,
        frames: Callable[[], list[CapturedFrame]],
        name: str = "",
        encrypted: bool = False,
        device_names: dict[MacAddress, str] | None = None,
    ) -> None:
        self.name = name
        self.encrypted = encrypted
        self.device_names = {} if device_names is None else device_names
        self._table = table
        self._frames: list[CapturedFrame] | None = None
        self._build_frames: Callable[[], list[CapturedFrame]] | None = frames

    @classmethod
    def from_frames(
        cls,
        frames: list[CapturedFrame],
        name: str = "",
        encrypted: bool = False,
        device_names: dict[MacAddress, str] | None = None,
    ) -> "Trace":
        """A trace over frame objects, interned once.

        Raises ``ValueError`` if the frames are not time-ordered
        (sub-microsecond backwards jitter is tolerated).
        """
        table = FrameTable.from_frames(frames)
        stamps = table.timestamp_us
        if stamps.size > 1 and float(np.min(np.diff(stamps))) < -1e-6:
            raise ValueError(f"trace {name!r} is not time-ordered")
        return cls(
            table,
            lambda: frames,
            name=name,
            encrypted=encrypted,
            device_names=device_names,
        )

    def _view(self, lo: int, hi: int) -> "Trace":
        """Rows ``[lo, hi)`` as a sub-trace over a view of the table."""
        return Trace(
            self._table.slice_rows(lo, hi),
            lambda: self.frames[lo:hi],
            name=self.name,
            encrypted=self.encrypted,
            device_names=self.device_names,
        )

    def __repr__(self) -> str:
        return f"<Trace {self.name!r} frames={len(self)} encrypted={self.encrypted}>"

    @property
    def frames(self) -> list[CapturedFrame]:
        """The captured frames (built on first read)."""
        if self._frames is None:
            self._frames = self._build_frames()
            self._build_frames = None
        return self._frames

    def __len__(self) -> int:
        return len(self._table)

    @property
    def start_us(self) -> float:
        """Timestamp of the first frame (0 for an empty trace)."""
        return self._table.start_us

    @property
    def end_us(self) -> float:
        """Timestamp of the last frame (0 for an empty trace)."""
        return self._table.end_us

    @property
    def duration_s(self) -> float:
        """Observed span of the trace in seconds."""
        return (self.end_us - self.start_us) / 1e6

    def senders(self) -> set[MacAddress]:
        """All attributable senders appearing in the trace."""
        return self._table.active_senders()

    def table(self) -> FrameTable:
        """The trace as a columnar :class:`FrameTable`.

        A slice's table is a view of its parent's, so windowing a trace
        never re-interns.
        """
        return self._table

    # ------------------------------------------------------------------
    def slice_us(self, start_us: float, end_us: float) -> "Trace":
        """Sub-trace with timestamps in ``[start_us, end_us)``."""
        stamps = self._table.timestamp_us
        lo, hi = np.searchsorted(stamps, (start_us, end_us), side="left")
        return self._view(int(lo), int(hi))

    def split(self, training_s: float) -> "TraceSplit":
        """Split into a training prefix and a validation remainder.

        ``training_s`` is measured from the trace start, matching the
        paper's "first hour / first 20 minutes" protocol.
        """
        if not training_s > 0:
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
        for lo, hi in window_bounds(self._table.timestamp_us, window_s):
            yield self._view(lo, hi)

    # ------------------------------------------------------------------
    def to_pcap(self, path: str | Path) -> int:
        """Persist as a radiotap pcap; returns the frame count."""
        from repro.radiotap.pcap import write_trace_pcap

        return write_trace_pcap(path, self.frames)

    @classmethod
    def from_pcap(
        cls, path: str | Path, name: str = "", encrypted: bool = False
    ) -> "Trace":
        """Load a radiotap or Prism pcap from disk.

        The decoded frames are interned and dropped, so the trace holds
        only its table; :attr:`frames` decodes the file again when read.
        """
        from repro.radiotap.pcap import read_trace_pcap

        loaded = cls.from_frames(
            read_trace_pcap(path), name=name or str(path), encrypted=encrypted
        )
        return cls(
            loaded.table(),
            lambda: read_trace_pcap(path),
            name=loaded.name,
            encrypted=encrypted,
        )


@dataclass(slots=True)
class TraceSplit:
    """Training/validation pair produced by :meth:`Trace.split`."""

    training: Trace
    validation: Trace
