"""Typed events emitted by the streaming engine, and event sinks.

The engine is event-driven end to end: chunked sources push columnar
:class:`~repro.traces.table.FrameTable` chunks in, and every
observable outcome — a detection window closing, a candidate matched
against the reference database, an application alert — leaves the
engine as a :class:`StreamEvent` delivered to registered sinks.

A sink is any callable taking one event; :class:`CollectingSink` and
:class:`JsonLinesSink` cover the common cases (tests/offline analysis
and machine-readable alert feeds respectively).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import IO, Callable, Iterator, Type, TypeVar

from repro.dot11.mac import MacAddress

#: Anything that consumes stream events.
EventSink = Callable[["StreamEvent"], None]

E = TypeVar("E", bound="StreamEvent")


@dataclass(frozen=True, slots=True)
class StreamEvent:
    """Base event: everything carries the emission time (µs, capture clock)."""

    timestamp_us: float

    def to_dict(self) -> dict:
        """JSON-serialisable form (MAC addresses become strings)."""
        payload: dict = {"event": type(self).__name__}
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if isinstance(value, MacAddress):
                value = str(value)
            payload[field.name] = value
        return payload


@dataclass(frozen=True, slots=True)
class WindowClosed(StreamEvent):
    """One detection window completed.

    ``candidate_count`` counts devices that cleared the
    minimum-observation gate; ``resident_devices`` is the number of
    per-device accumulators held when the window closed (the streaming
    engine's working-set size).
    """

    window_index: int
    start_us: float
    end_us: float
    frame_count: int
    candidate_count: int
    resident_devices: int


@dataclass(frozen=True, slots=True)
class DeviceMatched(StreamEvent):
    """Algorithm 1 verdict for one window candidate."""

    window_index: int
    device: MacAddress
    best_device: MacAddress | None
    similarity: float


@dataclass(frozen=True, slots=True)
class SpoofAlert(StreamEvent):
    """Spoof-detector verdict worth surfacing (spoofed/unknown)."""

    window_index: int
    device: MacAddress
    verdict: str
    self_similarity: float
    best_other_similarity: float


@dataclass(frozen=True, slots=True)
class RogueApAlert(StreamEvent):
    """The monitored AP's fingerprint stopped matching its reference."""

    window_index: int
    ap: MacAddress
    similarity: float
    observations: int


@dataclass(frozen=True, slots=True)
class PseudonymLinked(StreamEvent):
    """A randomised MAC linked (or explicitly not) to a known device."""

    window_index: int
    pseudonym: MacAddress
    linked_device: MacAddress | None
    similarity: float


class CollectingSink:
    """Stores every event in order; convenience filter by type."""

    def __init__(self) -> None:
        self.events: list[StreamEvent] = []

    def __call__(self, event: StreamEvent) -> None:
        self.events.append(event)

    def of_type(self, event_type: Type[E]) -> list[E]:
        """All collected events of one type, in emission order."""
        return [event for event in self.events if isinstance(event, event_type)]

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[StreamEvent]:
        return iter(self.events)


class JsonLinesSink:
    """Writes one JSON object per event to a text stream.

    ``flush_every=1`` (the default) flushes after every line, so an
    alert feed tailed by another process — or inspected after a crash
    mid-stream — always holds every emitted event; raise it to
    amortise the flush on high-volume offline runs (``0`` leaves
    flushing entirely to the stream).  Usable as a context manager,
    which flushes the tail on exit; :meth:`open` builds a sink that
    owns its file and closes it on exit too.
    """

    def __init__(self, stream: IO[str], flush_every: int = 1) -> None:
        if flush_every < 0:
            raise ValueError(f"flush_every must be >= 0: {flush_every}")
        self._stream = stream
        self._flush_every = flush_every
        self._pending = 0
        self._owns_stream = False

    @classmethod
    def open(cls, path, flush_every: int = 1) -> "JsonLinesSink":
        """A sink over a freshly opened file it owns (and will close)."""
        sink = cls(open(path, "w"), flush_every=flush_every)
        sink._owns_stream = True
        return sink

    def __call__(self, event: StreamEvent) -> None:
        self._stream.write(json.dumps(event.to_dict(), sort_keys=True))
        self._stream.write("\n")
        self._pending += 1
        if self._flush_every and self._pending >= self._flush_every:
            self.flush()

    def flush(self) -> None:
        """Push buffered lines down to the underlying stream."""
        self._pending = 0
        self._stream.flush()

    def close(self) -> None:
        """Flush, and close the stream if this sink opened it."""
        self.flush()
        if self._owns_stream:
            self._stream.close()

    def __enter__(self) -> "JsonLinesSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
