"""Detection windows over an unbounded chunked frame stream.

:class:`WindowManager` reproduces the evaluation protocol's windowing
(:meth:`repro.traces.trace.Trace.windows`) online: windows are aligned
to the first frame's timestamp and advance by a fixed slide.  With
``slide_s == window_s`` (the default) the windows tumble exactly like
the batch pipeline's; a smaller slide yields overlapping sliding
windows (each frame feeds every window containing it, at most
``ceil(window_s / slide_s)`` concurrently resident).

Each open window owns one
:class:`~repro.streaming.builder.StreamingSignatureBuilder`, so closing
a window yields one candidate signature per device that cleared the
minimum-observation gate — identical to running the batch builder on
the window's rows — after which the window's state is dropped.  A
window keeps every device it saw until it closes (Definition 1 builds
a candidate from all of the window's observations), so memory is
bounded by the device population of the open windows, never by the
stream length.

Window indices count *slide positions* from the stream origin, so they
stay aligned with the batch pipeline's enumeration even when wholly
empty stretches of the stream never open a window.

Frames arrive as columnar chunks (:meth:`WindowManager.update_table`),
which the manager cuts at window boundaries so each constant-open-set
span routes to the open builders as one vectorized update; closures
and state do not depend on where the chunks were cut (DESIGN.md §8).
An open window keeps only its senders' MAC integers
(:attr:`~repro.traces.table.FrameTable.sender_values`), and a closed
window hands them out as a :class:`SenderSet`, which builds a
:class:`~repro.dot11.mac.MacAddress` only for a consumer that iterates
it, so routing hashes no address.

One deliberate edge diverges from the batch path: when the capture's
*last* frame sits exactly on a window boundary, ``Trace.windows``
(whose final window is right-closed, DESIGN.md §6) folds it into the
final regular window, while an online manager — which cannot know a
frame is the last one until the stream ends — opens a fresh window for
it and emits that window at :meth:`WindowManager.flush`.  Every frame
still lands in exactly one window either way; only the terminal
window split differs, and only on that measure-zero boundary case.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Set
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping

import numpy as np

if TYPE_CHECKING:
    from repro.traces.table import FrameTable

from repro.dot11.mac import MacAddress
from repro.core.signature import Signature
from repro.persistence.checkpoint import checked_count, checked_mac, checked_time
from repro.streaming.builder import StreamingSignatureBuilder


@dataclass(frozen=True)
class WindowConfig:
    """Streaming window parameters.

    ``slide_s=None`` means tumbling windows (slide == window).  Every
    duration given must be positive and finite.
    """

    window_s: float = 300.0
    slide_s: float | None = None

    def __post_init__(self) -> None:
        if not 0 < self.window_s < math.inf:
            raise ValueError(
                f"window size must be positive and finite: {self.window_s}"
            )
        slide = self.slide_s
        if slide is not None and not 0 < slide <= self.window_s:
            raise ValueError(
                f"slide must be in (0, window_s]: {slide} vs {self.window_s}"
            )

    @property
    def effective_slide_s(self) -> float:
        """The slide step (tumbling = the window length itself)."""
        return self.window_s if self.slide_s is None else self.slide_s


class SenderSet(Set):
    """A window's senders as a read-only set of
    :class:`~repro.dot11.mac.MacAddress`, held as their MAC integers.

    ``len`` and membership read the integers; iterating builds one
    address per sender, so a window whose senders nobody reads builds
    none.  It compares equal to a ``set`` of the same addresses, and
    set operators return plain sets.
    """

    __slots__ = ("values",)

    def __init__(self, values: set[int]) -> None:
        self.values = values

    @classmethod
    def _from_iterable(cls, devices: Iterable[MacAddress]) -> set[MacAddress]:
        return set(devices)

    def __contains__(self, device: object) -> bool:
        return isinstance(device, MacAddress) and device.value in self.values

    def __iter__(self) -> Iterator[MacAddress]:
        return map(MacAddress, self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __repr__(self) -> str:
        return f"SenderSet({sorted(self, key=lambda device: device.value)})"


@dataclass(slots=True)
class ClosedWindow:
    """Everything a completed detection window produced."""

    index: int
    start_us: float
    end_us: float
    frame_count: int
    #: Devices that cleared the minimum-observation gate, as the
    #: builder's :class:`~repro.core.signature.SignatureBlock`: the
    #: matcher reads its arrays, and a :class:`Signature` is built only
    #: for a device looked up in it.
    signatures: Mapping[MacAddress, Signature]
    #: Every attributable sender seen in the window (superset of
    #: ``signatures`` — low-activity devices appear here only); a
    #: :class:`SenderSet` when the window manager closed the window.
    senders: Set[MacAddress]


class _OpenWindow:
    __slots__ = (
        "index",
        "start_us",
        "end_us",
        "builder",
        "frame_count",
        "sender_values",
    )

    def __init__(self, index: int, start_us: float, end_us: float, builder) -> None:
        self.index = index
        self.start_us = start_us
        self.end_us = end_us
        self.builder = builder
        self.frame_count = 0
        #: The MAC integers of the window's senders.
        self.sender_values: set[int] = set()


class WindowManager:
    """Routes a frame stream into (possibly overlapping) windows."""

    def __init__(
        self,
        builder_factory: Callable[[], StreamingSignatureBuilder],
        config: WindowConfig | None = None,
    ) -> None:
        self.config = config if config is not None else WindowConfig()
        self._builder_factory = builder_factory
        # Windows open and close in index order, so a deque gives O(1)
        # closes (popleft) instead of the former list.pop(0) front shift.
        self._windows: deque[_OpenWindow] = deque()
        self._origin_us: float | None = None
        self._next_index = 0

    # ------------------------------------------------------------------
    def update_table(self, chunk: "FrameTable") -> Iterator[tuple]:
        """Feed one columnar chunk; yields the chunk's event timeline.

        Frames must arrive in non-decreasing timestamp order (the
        capture invariant).  The chunk is cut at window boundaries
        (``searchsorted`` on the timestamp column) and each maximal
        span with a constant open-window set is routed to every open
        builder in one vectorized
        :meth:`StreamingSignatureBuilder.update_table` call.  Windows
        whose end lies at or before a frame's timestamp close before
        that frame reaches the analyzers: yields
        ``("closed", ClosedWindow)`` items in index order, and
        ``("frames", lo, hi)`` items after rows ``[lo, hi)`` have been
        routed (the engine forwards those spans to analyzers).
        """
        count = len(chunk)
        if count == 0:
            return
        stamps = chunk.timestamp_us
        if self._origin_us is None:
            self._origin_us = float(stamps[0])
        slide_us = self.config.effective_slide_s * 1e6
        pos = 0
        while pos < count:
            t_pos = float(stamps[pos])
            closed = self._close_until(t_pos)
            self._open_windows_containing(t_pos)
            # The open set stays constant until the earliest open end
            # (windows close in index order, so it is the head's) or
            # the next slide position, whichever a frame reaches first.
            horizon = min(
                self._windows[0].end_us,
                self._origin_us + self._next_index * slide_us,
            )
            hi = int(np.searchsorted(stamps, horizon, side="left"))
            if closed:
                # Route the triggering frame before reporting the
                # closures: the engine reads live state
                # (resident_devices) into each WindowClosed event.
                self._route(chunk, pos, pos + 1)
                for window in closed:
                    yield ("closed", window)
                self._route(chunk, pos + 1, hi)
            else:
                self._route(chunk, pos, hi)
            yield ("frames", pos, hi)
            pos = hi

    def flush(self) -> list[ClosedWindow]:
        """Close every still-open window (end of stream)."""
        closed = [self._close(window) for window in self._windows]
        self._windows.clear()
        return closed

    # ------------------------------------------------------------------
    def _close_until(self, t_us: float) -> list[ClosedWindow]:
        closed: list[ClosedWindow] = []
        while self._windows and self._windows[0].end_us <= t_us:
            closed.append(self._close(self._windows.popleft()))
        return closed

    def _route(self, chunk: "FrameTable", lo: int, hi: int) -> None:
        """Route chunk rows ``[lo, hi)`` to every open window."""
        count = hi - lo
        if count <= 0:
            return
        values = chunk.sender_values[chunk.sender_codes(lo, hi)].tolist()
        for window in self._windows:
            window.frame_count += count
            window.builder.update_table(chunk, lo, hi)
            window.sender_values.update(values)

    def _close(self, window: _OpenWindow) -> ClosedWindow:
        return ClosedWindow(
            index=window.index,
            start_us=window.start_us,
            end_us=window.end_us,
            frame_count=window.frame_count,
            signatures=window.builder.signatures(),
            senders=SenderSet(window.sender_values),
        )

    def _span_of(self, origin_us: float, index: int) -> tuple[float, float]:
        """``(start_us, end_us)`` of the window at slide position ``index``."""
        start_us = origin_us + index * (self.config.effective_slide_s * 1e6)
        return start_us, start_us + self.config.window_s * 1e6

    def _open_windows_containing(self, t_us: float) -> None:
        assert self._origin_us is not None
        slide_us = self.config.effective_slide_s * 1e6
        window_us = self.config.window_s * 1e6
        # First slide position whose window [start, start + W) covers t.
        earliest = int((t_us - self._origin_us - window_us) // slide_us) + 1
        if earliest > self._next_index:
            self._next_index = earliest  # skip windows that never saw a frame
        while True:
            start_us, end_us = self._span_of(self._origin_us, self._next_index)
            if start_us > t_us:
                break
            self._windows.append(
                _OpenWindow(
                    index=self._next_index,
                    start_us=start_us,
                    end_us=end_us,
                    builder=self._builder_factory(),
                )
            )
            self._next_index += 1

    # -- checkpointing -------------------------------------------------
    def export_state(self) -> dict:
        """Snapshot the windowing state (open builders included)."""
        return {
            "config": {
                "window_s": self.config.window_s,
                "slide_s": self.config.slide_s,
            },
            "origin_us": self._origin_us,
            "next_index": self._next_index,
            "open": [
                {
                    "index": window.index,
                    "start_us": window.start_us,
                    "end_us": window.end_us,
                    "frame_count": window.frame_count,
                    "senders": sorted(window.sender_values),
                    "builder": window.builder.export_state(),
                }
                for window in self._windows
            ],
        }

    def restore_state(self, payload: dict) -> None:
        """Resume from :meth:`export_state` output.

        The manager must have been constructed with the same
        :class:`WindowConfig` the snapshot was taken under; each open
        window gets a fresh builder from the factory, re-armed with the
        snapshot's accumulators.  The whole payload is checked before
        the manager changes: a ``ValueError`` naming the field (and the
        window index) refuses a config mismatch, a negative or
        non-integer count, open windows out of strictly increasing index
        order or not below ``next_index``, window bounds other than the
        ones this manager computes for the index, a sender that is not a
        48-bit integer, a sender listed twice, a builder channel clock
        outside its window, and whatever the builder refuses.
        """
        config = payload.get("config", {})
        mine = {
            "window_s": self.config.window_s,
            "slide_s": self.config.slide_s,
        }
        if config != mine:
            raise ValueError(
                f"checkpoint window config mismatch: snapshot has {config}, "
                f"this manager has {mine}"
            )
        origin = checked_time(payload.get("origin_us"), "origin_us")
        origin = None if origin is None else float(origin)
        next_index = checked_count(payload["next_index"], "next_index")
        windows: deque[_OpenWindow] = deque()
        previous = -1
        for entry in payload["open"]:
            index = checked_count(entry["index"], "open window index")
            where = f"open window {index}"
            if index <= previous:
                raise ValueError(
                    f"checkpoint {where} follows window {previous}: open windows "
                    f"must be in strictly increasing index order"
                )
            if index >= next_index:
                raise ValueError(
                    f"checkpoint {where} is not below next_index {next_index}"
                )
            if origin is None:
                raise ValueError(f"checkpoint {where} has no origin_us")
            previous = index
            start_us, end_us = self._span_of(origin, index)
            for key, expected in (("start_us", start_us), ("end_us", end_us)):
                if entry[key] != expected:
                    raise ValueError(
                        f"checkpoint {where} {key} is {entry[key]!r}, "
                        f"the window config puts it at {expected!r}"
                    )
            window = _OpenWindow(index, start_us, end_us, self._builder_factory())
            window.frame_count = checked_count(
                entry["frame_count"], f"{where} frame_count"
            )
            window.sender_values = {
                checked_mac(value, f"{where} senders") for value in entry["senders"]
            }
            if len(window.sender_values) != len(entry["senders"]):
                raise ValueError(f"checkpoint {where} lists a sender twice")
            window.builder.restore_state(entry["builder"])
            # Every row routed to a window lies inside it, the last one
            # (the channel clock) included.
            clock = window.builder.channel_clock_us
            if clock is not None and not start_us <= clock < end_us:
                raise ValueError(
                    f"checkpoint {where} channel clock previous_t {clock!r} lies "
                    f"outside the window [{start_us!r}, {end_us!r})"
                )
            windows.append(window)
        self._origin_us = origin
        self._next_index = next_index
        self._windows = windows

    # ------------------------------------------------------------------
    @property
    def open_windows(self) -> int:
        """How many windows are currently resident."""
        return len(self._windows)

    def resident_devices(self) -> int:
        """Total per-device accumulators across open windows."""
        return sum(window.builder.resident_count for window in self._windows)

    def window_spans(self) -> Iterator[tuple[int, float, float]]:
        """(index, start_us, end_us) of the open windows."""
        for window in self._windows:
            yield window.index, window.start_us, window.end_us
