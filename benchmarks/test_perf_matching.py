"""Micro-benchmark: batch matrix matching vs the scalar Algorithm 1 loop.

Synthetic heavy-traffic workload — a 200-device reference database and
10 000 window candidates (what a multi-AP deployment produces in a day
of 5-minute windows).  The batch engine must deliver at least a 10×
throughput improvement over the per-pair scalar loop (the oracle in
``tests/oracles.py``) while returning the same similarity matrix
(atol 1e-9).

The scalar path is timed on a subsample (it is the slow path — timing
all 10 000 candidates through it would dominate the whole suite) and
throughput is compared in candidates/second.
"""

from __future__ import annotations

import time

import numpy as np

from repro.dot11.mac import vendor_mac
from repro.core.database import ReferenceDatabase
from repro.core.matcher import batch_match_signatures
from repro.core.signature import Signature
from repro.core.similarity import cosine_similarity
from benchmarks.conftest import bench_smoke, write_bench_json
from tests.oracles import scalar_match

#: Reduced sizes (and a relaxed bar) under REPRO_BENCH_SMOKE=1.
SMOKE = bench_smoke()
DEVICES = 50 if SMOKE else 200
WINDOWS = 500 if SMOKE else 10_000
BINS = 75
FRAME_TYPES = ("Data", "Beacon", "RTS")
SCALAR_SAMPLE = 50 if SMOKE else 100
REQUIRED_SPEEDUP = 3.0 if SMOKE else 10.0


def _random_signature(rng: np.random.Generator) -> Signature:
    present = [f for f in FRAME_TYPES if rng.random() < 0.8] or [FRAME_TYPES[0]]
    counts = {f: int(rng.integers(1, 80)) for f in present}
    total = sum(counts.values())
    histograms = {}
    for ftype in present:
        values = rng.random(BINS)
        values[rng.random(BINS) < 0.6] = 0.0
        top = values.sum()
        histograms[ftype] = values / top if top else values
    return Signature(
        histograms=histograms,
        weights={f: counts[f] / total for f in present},
        observation_counts=counts,
    )


def _workload() -> tuple[ReferenceDatabase, list[Signature]]:
    rng = np.random.default_rng(1209)
    database = ReferenceDatabase()
    for i in range(DEVICES):
        database.add(vendor_mac("00:13:e8", i + 1), _random_signature(rng))
    candidates = [_random_signature(rng) for _ in range(WINDOWS)]
    return database, candidates


def test_batch_engine_throughput(benchmark):
    database, candidates = _workload()
    database.packed()  # build the matrices outside the timed region

    # --- scalar baseline on a subsample -----------------------------
    start = time.perf_counter()
    scalar_rows = [
        list(scalar_match(candidate, database, cosine_similarity).values())
        for candidate in candidates[:SCALAR_SAMPLE]
    ]
    scalar_seconds = time.perf_counter() - start
    scalar_rate = SCALAR_SAMPLE / scalar_seconds

    # --- batch engine over the full 10k windows ---------------------
    matrix = benchmark(batch_match_signatures, candidates, database)
    batch_seconds = benchmark.stats.stats.min
    batch_rate = WINDOWS / batch_seconds

    assert matrix.shape == (WINDOWS, DEVICES)
    np.testing.assert_allclose(matrix[:SCALAR_SAMPLE], scalar_rows, atol=1e-9)

    speedup = batch_rate / scalar_rate
    print(
        f"\nscalar: {scalar_rate:,.0f} candidates/s  "
        f"batch: {batch_rate:,.0f} candidates/s  speedup: {speedup:,.1f}x"
    )
    write_bench_json(
        "matching",
        {
            "devices": DEVICES,
            "windows": WINDOWS,
            "bins": BINS,
            "scalar_candidates_per_s": scalar_rate,
            "batch_candidates_per_s": batch_rate,
            "batch_seconds": batch_seconds,
            "speedup": speedup,
            "required_speedup": REQUIRED_SPEEDUP,
        },
    )
    assert speedup >= REQUIRED_SPEEDUP, (
        f"batch path only {speedup:.1f}x over scalar (need ≥{REQUIRED_SPEEDUP}x)"
    )
