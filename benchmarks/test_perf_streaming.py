"""Throughput benchmark for the streaming fingerprint engine.

Synthetic wire-speed workload: a multi-device capture is pre-built in
memory and cut into columnar ``FrameTable`` chunks (frame construction
and interning excluded from the timed region), a reference database is
learnt from a training prefix, and the engine then consumes the
validation remainder — windowing, incremental histogram updates and
live batch matching included.  It must sustain ``REQUIRED_FPS``
frames/second, and a second run in ``CHECK_CHUNK_FRAMES``-frame chunks
must emit identical events and stats.

Results (frames/sec, the peak resident signature count, the streaming
working-set metric, and the median window close latency) are written to
``BENCH_streaming.json`` so the perf trajectory is machine-readable
alongside the batch matching benchmark.  The close latency is recorded
only, with no bar: per window, the time from handing over the chunk
that closes it to the window's last event, as the repository benchmark
(``perfbench``) measures alert latency.
"""

from __future__ import annotations

import time

import numpy as np

from repro.dot11.capture import CapturedFrame
from repro.dot11.frames import Dot11Frame, FrameSubtype
from repro.dot11.mac import MacAddress, vendor_mac
from repro.core.database import ReferenceDatabase
from repro.core.parameters import InterArrivalTime
from repro.core.signature import SignatureBuilder
from repro.streaming import (
    CollectingSink,
    StreamEngine,
    StreamingSignatureBuilder,
    WindowClosed,
    WindowConfig,
    table_chunks,
)
from repro.traces.table import FrameTable
from benchmarks.conftest import bench_smoke, write_bench_json

SMOKE = bench_smoke()
DEVICES = 40
TRAIN_FRAMES = 30_000 if SMOKE else 60_000
STREAM_FRAMES = 50_000 if SMOKE else 200_000
WINDOW_S = 5.0
MIN_OBS = 50
REQUIRED_FPS = 20_000.0 if SMOKE else 50_000.0
CHUNK_FRAMES = 8192
#: A chunk size coprime to CHUNK_FRAMES for the equivalence run.
CHECK_CHUNK_FRAMES = 1021

AP = MacAddress.parse("00:0f:b5:00:00:01")


def synth_frames(count: int, rng: np.random.Generator, t0: float) -> list[CapturedFrame]:
    """A dense multi-device capture with per-device timing personality.

    Each device draws inter-arrival gaps around its own characteristic
    value (all inside the paper's 0–2500 µs histogram range), so the
    learnt signatures are actually distinguishable and live matching
    does real work.
    """
    devices = [vendor_mac("00:13:e8", i + 1) for i in range(DEVICES)]
    gaps = [60.0 + 55.0 * i for i in range(DEVICES)]
    sizes = [200 + 40 * i for i in range(DEVICES)]
    order = rng.integers(0, DEVICES, size=count)
    jitter = rng.random(count)
    frames: list[CapturedFrame] = []
    t = t0
    for pick, j in zip(order, jitter):
        device = devices[pick]
        t += gaps[pick] * (0.75 + 0.5 * j)
        frames.append(
            CapturedFrame(
                timestamp_us=t,
                frame=Dot11Frame(
                    subtype=FrameSubtype.QOS_DATA,
                    size=sizes[pick],
                    addr1=AP,
                    addr2=device,
                    addr3=AP,
                ),
                rate_mbps=54.0,
            )
        )
    return frames


class CloseLatency:
    """An event sink timing each window from the handover of the chunk
    that closes it (the flush, for the last windows) to its last event."""

    def __init__(self) -> None:
        self._handoff = 0.0
        self._first: dict[int, float] = {}
        self._last: dict[int, float] = {}

    def feed(self, chunks):
        for chunk in chunks:
            self._handoff = time.perf_counter()
            yield chunk
        self._handoff = time.perf_counter()

    def __call__(self, event) -> None:
        now = time.perf_counter()
        self._first.setdefault(event.window_index, self._handoff)
        self._last[event.window_index] = now

    def p50_ms(self) -> float:
        return 1e3 * float(
            np.median([self._last[i] - self._first[i] for i in self._last])
        )


def test_streaming_engine_throughput():
    rng = np.random.default_rng(4711)
    training = synth_frames(TRAIN_FRAMES, rng, t0=1000.0)
    validation = synth_frames(STREAM_FRAMES, rng, t0=training[-1].timestamp_us + 100.0)

    parameter = InterArrivalTime()
    database = ReferenceDatabase.from_training_table(
        SignatureBuilder(parameter, min_observations=MIN_OBS),
        FrameTable.from_frames(training),
    )
    assert len(database) == DEVICES
    database.packed()  # pack outside the timed region, like a deployment

    def make_engine(sink: CollectingSink) -> StreamEngine:
        return StreamEngine(
            lambda: StreamingSignatureBuilder(parameter, min_observations=MIN_OBS),
            database=database,
            window=WindowConfig(window_s=WINDOW_S),
            sinks=[sink],
        )

    # Chunks are pre-built outside the timed region — a live deployment
    # receives columnar batches straight from the capture layer.
    chunks = list(table_chunks(validation, CHUNK_FRAMES))
    sink = CollectingSink()
    latency = CloseLatency()
    engine = make_engine(sink)
    engine.subscribe(latency)
    start = time.perf_counter()
    stats = engine.run_chunked(latency.feed(chunks))
    seconds = time.perf_counter() - start
    fps = stats.frames / seconds

    assert stats.frames == STREAM_FRAMES
    assert stats.windows_closed >= 3
    assert stats.candidates > 0
    # Bounded working set: resident accumulators never exceed the
    # device population per concurrently open window.
    assert stats.peak_resident_devices <= DEVICES
    closed = sink.of_type(WindowClosed)
    assert len(closed) == stats.windows_closed

    # Not just fast: the events and stats do not depend on the chunking.
    check_sink = CollectingSink()
    check_stats = make_engine(check_sink).run_chunked(
        table_chunks(validation, CHECK_CHUNK_FRAMES)
    )
    assert check_sink.events == sink.events
    assert check_stats == stats

    print(
        f"\nstreaming: {fps:,.0f} frames/s in {CHUNK_FRAMES}-frame chunks over "
        f"{STREAM_FRAMES:,} frames ({stats.windows_closed} windows, "
        f"{stats.candidates} candidates, peak {stats.peak_resident_devices} "
        f"resident signatures, window close latency p50 {latency.p50_ms():.3f} ms)"
    )
    write_bench_json(
        "streaming",
        {
            "devices": DEVICES,
            "stream_frames": STREAM_FRAMES,
            "window_s": WINDOW_S,
            "chunk_frames": CHUNK_FRAMES,
            "seconds": seconds,
            "frames_per_s": fps,
            "windows_closed": stats.windows_closed,
            "candidates": stats.candidates,
            "peak_resident_signatures": stats.peak_resident_devices,
            "close_latency_p50_ms": latency.p50_ms(),
            "required_frames_per_s": REQUIRED_FPS,
        },
    )
    assert fps >= REQUIRED_FPS, (
        f"streaming engine at {fps:,.0f} frames/s (need ≥{REQUIRED_FPS:,.0f})"
    )
