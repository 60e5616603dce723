"""Streaming fingerprint engine: online signatures, incremental
matching, live alert pipeline.

The batch pipeline (``repro.core``) takes a whole capture's
:class:`~repro.traces.table.FrameTable`; this package feeds the same
vectorized core one table chunk at a time, so captures of unbounded
length run in bounded memory at wire speed (DESIGN.md §4):

* :class:`StreamingSignatureBuilder` — per-device incremental
  histograms fed chunk by chunk, provably equivalent to the batch
  builder;
* :class:`WindowManager` — tumbling/sliding detection windows with
  observation-count gating, each keeping every frame it saw until it
  closes;
* :class:`OnlineMatcher` — Algorithm 1 over closed windows against a
  live reference database, whose packed view is rebuilt on the first
  match after an ``add`` or ``remove``;
* :class:`StreamEngine` — chunked sources in
  (:mod:`~repro.streaming.sources`), typed events out
  (:mod:`~repro.streaming.events`), with online adapters for all three
  Section VII applications (:mod:`~repro.streaming.apps`).

Ingest is columnar: ``run_chunked``/``process_chunk`` consume
:class:`~repro.traces.table.FrameTable` chunks —
:func:`pcap_chunk_source`, :func:`replay_chunk_source` or a
simulator's ``Scenario.stream()`` — and scatter whole observation
batches into the incremental histograms; the events do not depend on
the chunk size (DESIGN.md §8).
"""

from repro.streaming.builder import StreamingSignatureBuilder
from repro.streaming.engine import StreamEngine, StreamStats
from repro.streaming.events import (
    CollectingSink,
    DeviceMatched,
    JsonLinesSink,
    PseudonymLinked,
    RogueApAlert,
    SpoofAlert,
    StreamEvent,
    WindowClosed,
)
from repro.streaming.apps import (
    LiveTracker,
    OnlineRogueApGuard,
    OnlineSpoofGuard,
    WindowAnalyzer,
)
from repro.streaming.matcher import OnlineMatcher, StreamCandidate
from repro.streaming.sources import (
    pcap_chunk_source,
    replay_chunk_source,
    skip_processed_chunks,
    table_chunks,
)
from repro.streaming.windows import ClosedWindow, WindowConfig, WindowManager

__all__ = [
    "ClosedWindow",
    "CollectingSink",
    "DeviceMatched",
    "JsonLinesSink",
    "LiveTracker",
    "OnlineMatcher",
    "OnlineRogueApGuard",
    "OnlineSpoofGuard",
    "PseudonymLinked",
    "RogueApAlert",
    "SpoofAlert",
    "StreamCandidate",
    "StreamEngine",
    "StreamEvent",
    "StreamStats",
    "StreamingSignatureBuilder",
    "WindowAnalyzer",
    "WindowClosed",
    "WindowConfig",
    "WindowManager",
    "pcap_chunk_source",
    "replay_chunk_source",
    "skip_processed_chunks",
    "table_chunks",
]
