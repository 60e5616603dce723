"""The streaming fingerprint engine: frame chunks in, typed events out.

:class:`StreamEngine` composes the online subsystem end to end:

1. a chunked source (:mod:`repro.streaming.sources`) is pulled one
   columnar :class:`~repro.traces.table.FrameTable` chunk at a time
   (:meth:`StreamEngine.run_chunked`) — the engine never holds the
   trace;
2. every chunk feeds the :class:`~repro.streaming.windows.WindowManager`,
   which cuts it at window boundaries (DESIGN.md §8), and each routed
   row span reaches the analyzers' row-level state (e.g. the rogue-AP
   guard's own-traffic accumulator);
3. when a detection window closes, its candidates are matched against
   the live reference database in one batch call
   (:class:`~repro.streaming.matcher.OnlineMatcher`), and the window
   analyzers receive those matched candidates with the window: the
   spoof guard and live tracker read their verdicts off the rows, so
   each closed window costs one Algorithm 1 call whatever is attached;
4. everything observable leaves as a typed
   :class:`~repro.streaming.events.StreamEvent` delivered to the
   registered sinks.

With tumbling windows the emitted matches are identical
to the batch pipeline (:func:`~repro.core.detection.extract_window_candidates`)
on the same frames — the equivalence the streaming tests pin down —
while memory stays bounded by the live working set: every device an
open window has seen, held until that window closes and dropped with
it.  :class:`StreamStats` tracks it as ``peak_resident_devices``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.core.database import ReferenceDatabase
from repro.traces.table import FrameTable
from repro.streaming.apps import WindowAnalyzer
from repro.streaming.events import DeviceMatched, EventSink, StreamEvent, WindowClosed
from repro.streaming.matcher import OnlineMatcher, StreamCandidate
from repro.streaming.windows import ClosedWindow, WindowConfig, WindowManager


@dataclass(slots=True)
class StreamStats:
    """Running counters the engine keeps while consuming a stream."""

    frames: int = 0
    windows_closed: int = 0
    candidates: int = 0
    events: int = 0
    #: Peak simultaneous per-device accumulators across open windows —
    #: the engine's working-set high-water mark: the largest resident
    #: count after routing any frame.  Residency drops only when a
    #: window closes and grows in between, so sampling it after every
    #: routed span gives a peak that does not depend on the chunking.
    peak_resident_devices: int = 0
    events_by_type: dict[str, int] = field(default_factory=dict)
    first_timestamp_us: float | None = None
    last_timestamp_us: float | None = None

    @property
    def duration_s(self) -> float:
        """Capture-clock span of the consumed stream."""
        if self.first_timestamp_us is None or self.last_timestamp_us is None:
            return 0.0
        return (self.last_timestamp_us - self.first_timestamp_us) / 1e6


class StreamEngine:
    """Event-driven online fingerprinting over a frame stream."""

    def __init__(
        self,
        builder_factory,
        database: ReferenceDatabase | None = None,
        window: WindowConfig | None = None,
        analyzers: Iterable[WindowAnalyzer] = (),
        sinks: Iterable[EventSink] = (),
    ) -> None:
        """``builder_factory`` makes one
        :class:`StreamingSignatureBuilder` per detection window (a
        zero-argument callable, e.g. ``lambda: StreamingSignatureBuilder(
        parameter, min_observations=50)``); the spoof guard and live
        tracker need their detector's ``database`` here."""
        self._windows = WindowManager(builder_factory, window)
        self._matcher = OnlineMatcher(database) if database is not None else None
        self._analyzers: list[WindowAnalyzer] = list(analyzers)
        self._sinks: list[EventSink] = list(sinks)
        self.stats = StreamStats()

    # -- wiring --------------------------------------------------------
    def subscribe(self, sink: EventSink) -> None:
        """Register one event sink."""
        self._sinks.append(sink)

    @property
    def matcher(self) -> OnlineMatcher | None:
        """The live matcher (``None`` when running without a database)."""
        return self._matcher

    # -- checkpointing -------------------------------------------------
    def checkpoint(self, path) -> "object":
        """Snapshot the engine's resumable state to a file.

        Captures the stream counters and every open window's builder
        accumulators (histograms, channel clock), so a later engine can
        :meth:`restore` and continue the capture as if never stopped.
        The reference database and analyzer state are *not* included —
        persist the database with :mod:`repro.persistence.store` and
        re-attach analyzers at construction (DESIGN.md §5).  Returns
        the written path.
        """
        from repro.persistence.checkpoint import save_checkpoint

        return save_checkpoint(self, path)

    def restore(self, path) -> None:
        """Resume from a :meth:`checkpoint` file.

        Call on a freshly constructed engine with the same builder
        factory and window configuration; feeding it the remaining
        frames, in any chunking, then produces exactly the events an
        uninterrupted run would have emitted.
        """
        from repro.persistence.checkpoint import load_checkpoint

        load_checkpoint(self, path)

    # -- ingest --------------------------------------------------------
    def process_chunk(self, table: FrameTable) -> None:
        """Consume one columnar chunk, emitting any events it triggers.

        The window manager cuts the chunk at window boundaries and each
        span updates the open builders through the vectorized
        ``observe_table``/scatter-add path (DESIGN.md §8).  Events,
        stats and resumable state do not depend on where the chunks
        were cut.  Analyzers receive the routed spans through
        :meth:`~repro.streaming.apps.WindowAnalyzer.on_table`, after
        the windows those rows close have been handled.
        """
        count = len(table)
        if count == 0:
            return
        stats = self.stats
        stats.frames += count
        if stats.first_timestamp_us is None:
            stats.first_timestamp_us = table.start_us
        stats.last_timestamp_us = table.end_us
        for item in self._windows.update_table(table):
            if item[0] == "closed":
                self._handle_closed(item[1])
            else:
                _, lo, hi = item
                for analyzer in self._analyzers:
                    analyzer.on_table(table, lo, hi)
                self._sample_resident()

    def run_chunked(self, chunks: Iterable[FrameTable]) -> StreamStats:
        """Consume a chunked (``FrameTable``) source, flush, and return stats."""
        process = self.process_chunk
        for chunk in chunks:
            process(chunk)
        self.flush()
        return self.stats

    def flush(self) -> None:
        """Close all still-open windows (end of stream)."""
        for window in self._windows.flush():
            self._handle_closed(window)

    def _sample_resident(self) -> None:
        resident = self._windows.resident_devices()
        if resident > self.stats.peak_resident_devices:
            self.stats.peak_resident_devices = resident

    # -- window completion ---------------------------------------------
    def _handle_closed(self, closed: ClosedWindow) -> None:
        self.stats.windows_closed += 1
        self.stats.candidates += len(closed.signatures)
        matches: list[StreamCandidate] = (
            self._matcher.match_window(closed) if self._matcher is not None else []
        )
        self._emit(
            WindowClosed(
                timestamp_us=closed.end_us,
                window_index=closed.index,
                start_us=closed.start_us,
                end_us=closed.end_us,
                frame_count=closed.frame_count,
                candidate_count=len(closed.signatures),
                resident_devices=self._windows.resident_devices(),
            )
        )
        for candidate in matches:
            best_device, best_sim = candidate.best
            self._emit(
                DeviceMatched(
                    timestamp_us=closed.end_us,
                    window_index=candidate.window_index,
                    device=candidate.device,
                    best_device=best_device,
                    similarity=best_sim,
                )
            )
        for analyzer in self._analyzers:
            for event in analyzer.on_window(closed, matches):
                self._emit(event)

    def _emit(self, event: StreamEvent) -> None:
        self.stats.events += 1
        name = type(event).__name__
        self.stats.events_by_type[name] = self.stats.events_by_type.get(name, 0) + 1
        for sink in self._sinks:
            sink(event)
