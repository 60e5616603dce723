"""Macro-benchmark: columnar trace→window-candidates vs the oracle path.

Synthetic heavy-ingest workload — a ≥100k-frame capture (40 devices,
ACK/CTS interleaved) run through the full detection front end for all
five network parameters: training split → reference database →
validation windows → candidate signatures → batch matching.  The
columnar backbone (DESIGN.md §6) must deliver at least a 10× speedup
over the per-frame object path — the oracles of ``tests/oracles.py``:
scalar extraction and bucketed assembly per window — while producing
**identical** candidates (same devices, same windows, same similarity
scores).

Both sides are timed as the minimum over ``ROUNDS`` rounds taken
alternately, so a slowdown of the machine during one side's run cannot
decide the ratio.  The columnar interning pass (``Trace.from_frames``,
which builds the trace's table) stays outside the sweeps — one table
serves every parameter, window and consumer, mirroring how
``test_perf_matching`` pre-packs the reference matrices — but it is
timed the same way, as the minimum over the same rounds, and the
ingest-inclusive speedup is gated too (≥2×/≥1.2× smoke).  The heap that
earlier tests leave behind is frozen (``gc.freeze``) for the test's
length, so the collector's passes in the timed regions scan only what
this test allocates, whatever ran before it.
"""

from __future__ import annotations

import gc
import time

import numpy as np
import pytest

from repro.core.database import ReferenceDatabase
from repro.core.detection import DetectionConfig, extract_window_candidates
from repro.core.parameters import ALL_PARAMETERS
from repro.core.signature import SignatureBuilder
from repro.dot11.capture import CapturedFrame
from repro.dot11.frames import Dot11Frame, FrameSubtype, ack_frame
from repro.dot11.mac import vendor_mac
from repro.traces.trace import Trace
from benchmarks.conftest import bench_smoke, write_bench_json
from tests import oracles

#: Reduced sizes (and relaxed bars) under REPRO_BENCH_SMOKE=1.
SMOKE = bench_smoke()
FRAMES = 25_000 if SMOKE else 120_000
DEVICES = 15 if SMOKE else 40
WINDOW_S = 6.0
MIN_OBS = 50
TRAINING_FRACTION = 0.2
REQUIRED_SPEEDUP = 3.0 if SMOKE else 10.0
REQUIRED_SPEEDUP_WITH_INGEST = 1.2 if SMOKE else 2.0
#: Alternating timing rounds per side; each side reports its minimum.
ROUNDS = 5
CONFIG = DetectionConfig(window_s=WINDOW_S, min_observations=MIN_OBS)

_SUBTYPES = (
    FrameSubtype.QOS_DATA,
    FrameSubtype.QOS_DATA,
    FrameSubtype.QOS_DATA,
    FrameSubtype.DATA,
    FrameSubtype.PROBE_REQUEST,
    FrameSubtype.NULL_FUNCTION,
)


def _workload() -> list[CapturedFrame]:
    rng = np.random.default_rng(4127)
    senders = [vendor_mac("00:13:e8", i + 1) for i in range(DEVICES)]
    ap = vendor_mac("00:0f:b5", 1)
    stamps = np.cumsum(rng.exponential(250.0, FRAMES))
    who = rng.integers(0, DEVICES, FRAMES)
    subtype_pick = rng.integers(0, len(_SUBTYPES), FRAMES)
    is_ack = rng.random(FRAMES) < 0.15  # sender-less channel-clock ticks
    sizes = rng.choice([80, 120, 640, 1460, 1500], FRAMES)
    rates = rng.choice([1.0, 2.0, 5.5, 11.0, 24.0, 54.0], FRAMES)
    frames = []
    for i in range(FRAMES):
        if is_ack[i]:
            frame = ack_frame(ap)
        else:
            subtype = _SUBTYPES[subtype_pick[i]]
            frame = Dot11Frame(
                subtype=subtype,
                size=28 if subtype is FrameSubtype.NULL_FUNCTION else int(sizes[i]),
                addr1=ap,
                addr2=senders[who[i]],
                addr3=ap,
            )
        frames.append(
            CapturedFrame(
                timestamp_us=float(stamps[i]),
                frame=frame,
                rate_mbps=float(rates[i]),
            )
        )
    return frames


def _object_sweep(split):
    """Full detection front end for all five parameters, oracle path."""
    results = []
    for parameter in ALL_PARAMETERS:
        builder = SignatureBuilder(parameter, min_observations=MIN_OBS)
        database = oracles.from_training(builder, split.training.frames)
        results.append(
            oracles.window_candidates(split.validation, builder, database, CONFIG)
        )
    return results


def _columnar_sweep(split, training_table):
    """Full detection front end for all five parameters, columnar path."""
    results = []
    for parameter in ALL_PARAMETERS:
        builder = SignatureBuilder(parameter, min_observations=MIN_OBS)
        database = ReferenceDatabase.from_training_table(builder, training_table)
        results.append(
            extract_window_candidates(split.validation, builder, database, CONFIG)
        )
    return results


def _timed(sweep, *args):
    start = time.perf_counter()
    results = sweep(*args)
    return results, time.perf_counter() - start


@pytest.fixture()
def frozen_heap():
    """Keep the collector off the objects earlier tests left alive."""
    gc.collect()
    gc.freeze()
    yield
    gc.unfreeze()


def test_columnar_pipeline_throughput(frozen_heap):
    frames = _workload()

    # --- interning, then both paths, alternating rounds -------------
    interning_times, object_times, columnar_times = [], [], []
    for _ in range(ROUNDS):
        trace, seconds = _timed(Trace.from_frames, frames, "perf-pipeline")
        interning_times.append(seconds)
        split = trace.split(trace.duration_s * TRAINING_FRACTION)  # table views
        training_table = split.training.table()
        object_results, seconds = _timed(_object_sweep, split)
        object_times.append(seconds)
        columnar_results, seconds = _timed(_columnar_sweep, split, training_table)
        columnar_times.append(seconds)
    interning_seconds = min(interning_times)
    object_seconds = min(object_times)
    columnar_seconds = min(columnar_times)

    # Bin-for-bin identical output: same candidates, same scores.
    for expected, actual in zip(object_results, columnar_results):
        assert [(c.device, c.window_index) for c in expected] == [
            (c.device, c.window_index) for c in actual
        ]
        for reference, candidate in zip(expected, actual):
            assert oracles.similarities(reference) == oracles.similarities(candidate)

    candidate_count = sum(len(r) for r in object_results)
    assert candidate_count > 0
    speedup = object_seconds / columnar_seconds
    speedup_with_ingest = object_seconds / (columnar_seconds + interning_seconds)
    frames_per_s = FRAMES * len(ALL_PARAMETERS) / columnar_seconds
    print(
        f"\nobject: {object_seconds:.3f}s  columnar: {columnar_seconds:.3f}s "
        f"(+{interning_seconds:.3f}s interning)  "
        f"speedup: {speedup:.1f}x ({speedup_with_ingest:.1f}x incl. ingest)  "
        f"{frames_per_s:,.0f} frame-params/s"
    )
    write_bench_json(
        "pipeline",
        {
            "frames": FRAMES,
            "devices": DEVICES,
            "parameters": len(ALL_PARAMETERS),
            "window_s": WINDOW_S,
            "candidates": candidate_count,
            "interning_seconds": interning_seconds,
            "rounds": ROUNDS,
            "object_seconds": object_seconds,
            "columnar_seconds": columnar_seconds,
            "speedup": speedup,
            "speedup_with_ingest": speedup_with_ingest,
            "frame_params_per_s": frames_per_s,
            "required_speedup": REQUIRED_SPEEDUP,
        },
    )
    assert speedup >= REQUIRED_SPEEDUP, (
        f"columnar pipeline only {speedup:.1f}x over the oracle path "
        f"(need ≥{REQUIRED_SPEEDUP}x)"
    )
    assert speedup_with_ingest >= REQUIRED_SPEEDUP_WITH_INGEST, (
        f"columnar pipeline incl. interning only {speedup_with_ingest:.1f}x "
        f"(need ≥{REQUIRED_SPEEDUP_WITH_INGEST}x)"
    )
