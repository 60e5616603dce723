"""Benchmark: sharded parallel matching vs the single-shard engine.

Production-scale workload — thousands of reference devices, one batch
of window candidates, the deployment-realistic *top-k* query ("which
known devices does this candidate resemble?").  Two paths answer it:

* **single-shard** — the unsharded packed engine + in-process top-k
  selection (the PR-1 baseline);
* **sequential sharded** — K=4 consistent-hash shards matched one
  after another and top-k-merged (pure bookkeeping overhead).

Correctness is asserted every run: K=1 equals the unsharded engine
bitwise, K=4 agrees to 1e-12 (BLAS reduction order, DESIGN.md §5) and
the merged top-k picks equal the single-shard ones.

Throughput is recorded, not gated: best-of-3 wall-clock ratios
between the two paths swing by more than any useful bar from run to
run, so both rates and ``cpu_count`` go to ``BENCH_sharded.json`` for
the trajectory.  Performance claims are measured by the
repository benchmark (``perfbench/``).  Smoke mode shrinks the
workload.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.dot11.mac import vendor_mac
from repro.core.database import ReferenceDatabase
from repro.core.matcher import batch_match_signatures
from repro.core.sharding import ShardedReferenceDatabase, _local_top_k
from repro.core.signature import Signature
from benchmarks.conftest import bench_smoke, write_bench_json

SMOKE = bench_smoke()
DEVICES = 600 if SMOKE else 8000
CANDIDATES = 96 if SMOKE else 512
BINS = 75
FRAME_TYPES = ("Data", "Beacon", "RTS")
SHARDS = 4
TOP_K = 5
RUNS = 3
CPU_COUNT = os.cpu_count() or 1


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
    rng = np.random.default_rng(7041)
    database = ReferenceDatabase()
    for i in range(DEVICES):
        database.add(vendor_mac("00:13:e8", i + 1), _random_signature(rng))
    candidates = [_random_signature(rng) for _ in range(CANDIDATES)]
    return database, candidates


def _best_of(runs: int, fn) -> tuple[float, object]:
    best = float("inf")
    result = None
    for _ in range(runs):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_sharded_matching_throughput():
    database, candidates = _workload()
    database.packed()  # pack outside the timed region, like deployment

    # --- single-shard engine (baseline): batch match + local top-k --
    def single_top_k():
        return _local_top_k(batch_match_signatures(candidates, database), TOP_K)

    single_seconds, single_result = _best_of(RUNS, single_top_k)

    # --- sequential sharded fan-out ----------------------------------
    sharded = ShardedReferenceDatabase.from_database(database, SHARDS)
    sequential_seconds, sequential_top = _best_of(
        RUNS, lambda: sharded.top_k(candidates, TOP_K)
    )

    # --- correctness gates (every run, all K) ------------------------
    reference = batch_match_signatures(candidates, database)
    k1 = ShardedReferenceDatabase.from_database(database, 1)
    assert np.array_equal(k1.batch_match(candidates), reference)  # atol 0
    merged = sharded.batch_match(candidates)
    np.testing.assert_allclose(merged, reference, rtol=0, atol=1e-12)
    devices = sharded.devices
    for (columns, values), picks in zip(single_result, sequential_top):
        assert [devices[i] for i in columns] == [device for device, _ in picks]

    single_rate = CANDIDATES / single_seconds
    sequential_rate = CANDIDATES / sequential_seconds
    print(
        f"\nsingle-shard: {single_rate:,.0f} cand/s  "
        f"sequential x{SHARDS}: {sequential_rate:,.0f} cand/s  "
        f"({CPU_COUNT} cpu)"
    )
    write_bench_json(
        "sharded",
        {
            "devices": DEVICES,
            "candidates": CANDIDATES,
            "bins": BINS,
            "shard_count": SHARDS,
            "top_k": TOP_K,
            "cpu_count": CPU_COUNT,
            "single_shard_seconds": single_seconds,
            "sequential_sharded_seconds": sequential_seconds,
            "single_shard_candidates_per_s": single_rate,
            "sequential_sharded_candidates_per_s": sequential_rate,
            "max_abs_delta_vs_unsharded": float(np.abs(merged - reference).max()),
        },
    )
