"""Chunked frame sources for the streaming engine.

A source is an iterable of columnar
:class:`~repro.traces.table.FrameTable` chunks in non-decreasing
timestamp order; :meth:`~repro.streaming.engine.StreamEngine.run_chunked`
pulls one chunk at a time, so a source backed by a file or a live feed
keeps the whole pipeline in bounded memory.  The sources:

* :func:`pcap_chunk_source` — an on-disk radiotap or Prism pcap
  decoded lazily (:func:`repro.radiotap.pcap.iter_trace_pcap`), never
  materialising the capture; :func:`table_chunks` interns the decoded
  frames ``chunk_frames`` at a time;
* :func:`replay_chunk_source` — an in-memory table (a trace's
  ``table()``, a test fixture) as zero-copy row slices;
* :meth:`repro.simulator.scenario.Scenario.stream` — the
  discrete-event simulator as a live feed, draining the monitor's
  capture buffer into a table as simulated time advances.

Chunking trades a bounded amount of latency (at most ``chunk_frames``
of buffering) for vectorized ingest; the emitted events do not depend
on the chunk size.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Iterable, Iterator

from repro.dot11.capture import CapturedFrame

if TYPE_CHECKING:  # pragma: no cover
    from repro.traces.table import FrameTable

#: A chunked source: time-ordered columnar chunks for ``run_chunked``.
TableSource = Iterable["FrameTable"]

#: Default columnar chunk size — large enough to amortise the
#: vectorized dispatch, small enough to bound buffering latency.
DEFAULT_CHUNK_FRAMES = 8192


def table_chunks(
    frames: Iterable[CapturedFrame], chunk_frames: int = DEFAULT_CHUNK_FRAMES
) -> Iterator["FrameTable"]:
    """Intern a frame iterable ``chunk_frames`` frames at a time."""
    if chunk_frames < 1:
        raise ValueError(f"chunk_frames must be >= 1: {chunk_frames}")
    from repro.traces.table import FrameTable

    batch: list[CapturedFrame] = []
    for frame in frames:
        batch.append(frame)
        if len(batch) >= chunk_frames:
            yield FrameTable.from_frames(batch)
            batch = []
    if batch:
        yield FrameTable.from_frames(batch)


def pcap_chunk_source(
    source: str | Path | BinaryIO | bytes,
    chunk_frames: int = DEFAULT_CHUNK_FRAMES,
    skip_bad_fcs: bool = False,
) -> Iterator["FrameTable"]:
    """Stream a radiotap or Prism pcap as columnar chunks (bounded memory)."""
    from repro.radiotap.pcap import iter_trace_pcap

    return table_chunks(
        iter_trace_pcap(source, skip_bad_fcs=skip_bad_fcs), chunk_frames
    )


def skip_processed_chunks(
    chunks: TableSource, count: int, horizon_us: float
) -> Iterator["FrameTable"]:
    """Drop the ``count`` leading frames a resumed checkpoint already saw.

    Trims the already-processed prefix off the leading chunks
    (zero-copy views).  Only frames at or before the checkpoint's
    capture clock (``horizon_us``) are candidates for skipping, so
    resuming against a *continuation* capture (which starts after the
    horizon) passes everything through, while resuming against the
    original capture skips exactly the processed prefix.
    Wholly-skipped chunks are not yielded at all.
    """
    import numpy as np

    remaining = count
    for chunk in chunks:
        if remaining:
            eligible = int(
                np.searchsorted(chunk.timestamp_us, horizon_us, side="right")
            )
            drop = min(remaining, eligible)
            remaining -= drop
            if drop == len(chunk):
                continue
            if drop:
                chunk = chunk.slice_rows(drop, len(chunk))
        yield chunk


def replay_chunk_source(
    table: "FrameTable", chunk_frames: int = DEFAULT_CHUNK_FRAMES
) -> Iterator["FrameTable"]:
    """Replay an in-memory table as zero-copy ``chunk_frames`` slices."""
    if chunk_frames < 1:
        raise ValueError(f"chunk_frames must be >= 1: {chunk_frames}")
    return (
        table.slice_rows(lo, min(lo + chunk_frames, len(table)))
        for lo in range(0, len(table), chunk_frames)
    )
