"""Soak benchmark: the multi-sensor ingest service under sustained load.

N concurrent sensor sessions stream columnar chunks over loopback TCP
into one :class:`~repro.service.server.IngestServer` (wire encode →
decode → consistent-hash shard partition → windowed harvest), and the
run is compared against :func:`~repro.service.server.run_inline` — the
same pipelines fed sequentially with no sockets, threads, or wire
codec.

Asserted every run, at every size:

* the service's merged reference database is **bin-for-bin identical**
  to the sequential inline reference (concurrency changes nothing);
* every per-sensor ingest queue stayed within its configured bound
  (backpressure, not buffering — the service's memory high-water mark
  is ``sensors × queue_chunks × chunk_frames`` rows plus the engines'
  working set).

Throughput is recorded, not gated: a one-shot wall-clock ratio of
service to inline time swings by more than any useful bar from run to
run, so the service and inline rates, their ratio and ``cpu_count``
go to ``BENCH_service.json`` for the trajectory.  Performance claims
are measured by the repository benchmark (``perfbench/``, the
``sensor-fleet`` workload).  Smoke mode shrinks the workload to a few
seconds.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np

from repro.core.parameters import InterArrivalTime
from repro.dot11.mac import vendor_mac
from repro.service import (
    IngestServer,
    SensorSession,
    ServiceConfig,
    run_inline,
)
from repro.streaming import WindowConfig
from repro.traces.table import FrameTable
from benchmarks.conftest import bench_smoke, write_bench_json
from tests.test_persistence import assert_databases_equal

SMOKE = bench_smoke()
SENSORS = 3 if SMOKE else 4
FRAMES_PER_SENSOR = 6_000 if SMOKE else 120_000
CHUNK_FRAMES = 512
DEVICES = 12
SHARDS = 4
QUEUE_CHUNKS = 8
WINDOW_S = 10.0
CPU_COUNT = os.cpu_count() or 1


def synth_table(frames: int, seed: int) -> FrameTable:
    """One sensor's capture, generated columnar (no frame objects)."""
    rng = np.random.default_rng(seed)
    timestamps = 10_000.0 + np.cumsum(rng.uniform(400.0, 5000.0, frames))
    sender_idx = rng.integers(0, DEVICES, frames, dtype=np.int64)
    sender_idx[rng.random(frames) < 0.1] = -1  # ACK/CTS rows
    return FrameTable(
        timestamp_us=timestamps,
        size=rng.choice(np.array([90.0, 400.0, 1500.0]), frames),
        rate_mbps=rng.choice(np.array([6.0, 24.0, 54.0]), frames),
        sender_idx=sender_idx,
        ftype_idx=rng.integers(0, 2, frames, dtype=np.int64),
        senders=tuple(vendor_mac("00:13:e8", i + 1) for i in range(DEVICES)),
        ftype_keys=("Data", "Beacon"),
    )


def sensor_chunks() -> dict[str, list[FrameTable]]:
    captures = {}
    for i in range(SENSORS):
        table = synth_table(FRAMES_PER_SENSOR, seed=9000 + i)
        captures[f"bench-{i}"] = [
            table.slice_rows(lo, min(lo + CHUNK_FRAMES, len(table)))
            for lo in range(0, len(table), CHUNK_FRAMES)
        ]
    return captures


def test_service_soak_throughput():
    captures = sensor_chunks()
    total_frames = SENSORS * FRAMES_PER_SENSOR
    config = ServiceConfig(
        parameter=InterArrivalTime(),
        shard_count=SHARDS,
        window=WindowConfig(window_s=WINDOW_S),
        min_observations=10,
        queue_chunks=QUEUE_CHUNKS,
    )

    # --- inline sequential baseline (no sockets, threads, or wire) ---
    inline_start = time.perf_counter()
    inline = run_inline(captures, config)
    inline_seconds = time.perf_counter() - inline_start

    # --- the service: N concurrent TCP sessions ----------------------
    service_start = time.perf_counter()
    with IngestServer(config) as server:
        port = server.listen()
        threads = [
            threading.Thread(
                target=SensorSession(sensor, chunks).connect,
                args=("127.0.0.1", port),
            )
            for sensor, chunks in captures.items()
        ]
        for thread in threads:
            thread.start()
        assert server.wait_for_sessions(SENSORS, timeout=600.0)
        service_seconds = time.perf_counter() - service_start
        for thread in threads:
            thread.join(timeout=30.0)
        merged = server.merged_database()
        stats = server.stats()

    # --- correctness gates (every run, every size) -------------------
    assert len(merged.devices) == DEVICES
    assert_databases_equal(merged, inline.database)
    assert stats.frames == total_frames
    assert stats.queue_peak <= QUEUE_CHUNKS, (
        f"per-sensor queue exceeded its bound: peak {stats.queue_peak} "
        f"chunks vs limit {QUEUE_CHUNKS}"
    )
    assert all(sensor.completed for sensor in stats.sensors)

    service_rate = total_frames / service_seconds
    inline_rate = total_frames / inline_seconds
    overhead = service_seconds / inline_seconds
    print(
        f"\nservice x{SENSORS} sensors: {service_rate:,.0f} frames/s  "
        f"inline: {inline_rate:,.0f} frames/s  "
        f"overhead {overhead:.2f}x  queue peak {stats.queue_peak} "
        f"({CPU_COUNT} cpu)"
    )
    write_bench_json(
        "service",
        {
            "sensors": SENSORS,
            "frames_per_sensor": FRAMES_PER_SENSOR,
            "total_frames": total_frames,
            "chunk_frames": CHUNK_FRAMES,
            "devices": DEVICES,
            "shard_count": SHARDS,
            "queue_chunks": QUEUE_CHUNKS,
            "window_s": WINDOW_S,
            "cpu_count": CPU_COUNT,
            "service_seconds": service_seconds,
            "inline_seconds": inline_seconds,
            "service_frames_per_s": service_rate,
            "inline_frames_per_s": inline_rate,
            "overhead_ratio": overhead,
            "queue_peak_chunks": stats.queue_peak,
            "windows_closed": sum(s.windows_closed for s in stats.sensors),
            "merged_devices": len(merged.devices),
        },
    )
