"""The program under test, one process per benchmark launch.

``run.py`` starts this process, times it until it prints its ready line
(the set-up time), and lets it run passes over the generated inputs
for the measuring time.  The process writes what it produced and what
it measured to ``<work>/result.json``; ``run.py`` checks the outputs.

    python3 perfbench/program.py WORKLOAD --work DIR --seed N --seconds S
        [--trace] [--setup-only]

In a traced launch the process runs a traced cycle between two
untraced ones (a cycle is the repeatable part of set-up plus one pass),
so the per-layer figures and the tracing overhead come from one
process.  ``sensor-fleet`` is driven over stdin: the generator in
``run.py`` answers each ``PUBLISHED`` line with ``again``, ``trace`` or
``stop [traced_wall_s untraced_wall_s]``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path

import inputs
import layers
from tracer import Tracer

clock = time.perf_counter


def ready(line: str = "READY") -> None:
    print(line, flush=True)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def more_passes(walls: list[float], started: float, seconds: float) -> bool:
    """Start another pass only if it should end within the budget."""
    if not walls:
        return True
    typical = sorted(walls)[len(walls) // 2]
    return clock() - started + typical <= seconds * 1.1


def run_passes(prepare, run_pass, state, args) -> dict:
    """Untraced passes for the budget, or in a traced launch a traced
    cycle between two untraced ones.

    Untraced passes take turns on the machine's CPUs: on the machine
    the bounds were set on, each CPU slows for tens of seconds at a
    time when a neighbour shares its core, independently of the other
    CPU, and ``run.py`` keeps the fastest passes.
    """
    passes = []
    if not args.trace:
        cpus = sorted(os.sched_getaffinity(0))
        started = clock()
        while more_passes([p["wall_s"] for p in passes], started, args.seconds):
            os.sched_setaffinity(0, {cpus[len(passes) % len(cpus)]})
            passes.append(run_pass(state))
        os.sched_setaffinity(0, cpus)
        return {"passes": passes}
    # The traced cycle runs between two untraced ones, all on one CPU;
    # the faster untraced cycle is the overhead's base.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    untraced = []

    def untraced_cycle() -> None:
        cycle_start = clock()
        passes.append(run_pass(prepare()))
        untraced.append(clock() - cycle_start)

    untraced_cycle()
    tracer = Tracer()
    layers.install(tracer)
    try:
        since = clock()
        traced = run_pass(prepare())
        wall_s = clock() - since
    finally:
        tracer.restore()
    passes.append(traced)
    untraced_cycle()
    untraced_s = min(untraced)
    extra = traced.pop("layer_extra", {})
    return {
        "passes": passes,
        "layers": layers.metrics(tracer, since, wall_s, untraced_s, extra),
        "spans": [span._asdict() for span in tracer.spans],
    }


# -- scenario-matrix -------------------------------------------------------
def scenario_matrix(args) -> dict | None:
    from repro.evaluation import matrix
    from repro.evaluation.cache import SimulationCache
    from repro.scenarios.library import scenario_names

    def prepare():
        cache = SimulationCache()
        for name in scenario_names():
            cache.built_scenario(name, seed=args.seed, scale=inputs.MATRIX_SCALE)
        return cache

    prepare()
    ready()
    if args.setup_only:
        return None

    def run_pass(cache) -> dict:
        start = clock()
        cache = cache if cache is not None else prepare()
        latencies, cells = [], []
        for key in matrix.matrix_cells():
            cell_start = clock()
            cell = matrix.evaluate_cell(
                key, cache=cache, seed=args.seed, scale=inputs.MATRIX_SCALE
            )
            latencies.append(clock() - cell_start)
            cells.append(cell)
        wall_s = clock() - start
        frames = {cell.scenario: cell.frame_count for cell in cells}
        return {
            "wall_s": wall_s,
            "frames": sum(frames.values()),
            "latencies_s": latencies,
            "cells": [cell.to_payload() for cell in cells],
        }

    return run_passes(prepare, run_pass, None, args)


# -- live-stream -----------------------------------------------------------
def live_stream(args) -> dict | None:
    from repro.core.parameters import parameter_by_name
    from repro.persistence import store
    from repro.streaming.builder import StreamingSignatureBuilder
    from repro.streaming.engine import StreamEngine
    from repro.streaming.events import DeviceMatched
    from repro.streaming.windows import WindowConfig

    parameter = parameter_by_name(inputs.LIVE_PARAMETER)
    factory = functools.partial(
        StreamingSignatureBuilder, parameter, min_observations=inputs.LIVE_MIN_OBSERVATIONS
    )
    window = WindowConfig(window_s=inputs.LIVE_WINDOW_S)

    def prepare():
        database = store.load_database(args.work / "store").database
        database.packed()
        StreamEngine(factory, database=database, window=window)
        return database

    database = prepare()
    ready()
    if args.setup_only:
        return None
    chunks = inputs.chunk_tables(
        inputs.load_capture(args.work / "capture"), inputs.CHUNK_FRAMES
    )
    # Fault in the allocator and BLAS before the first timed pass.
    StreamEngine(factory, database=database, window=window).run_chunked(chunks[:24])

    def run_pass(database) -> dict:
        handoff = [0.0]
        first: dict[int, float] = {}
        last: dict[int, float] = {}
        matches: dict[int, list] = defaultdict(list)

        def sink(event) -> None:
            now = clock()
            index = event.window_index
            first.setdefault(index, handoff[0])
            last[index] = now
            if isinstance(event, DeviceMatched):
                matches[index].append(
                    [event.device.value, event.best_device.value, event.similarity]
                )

        def feed():
            for chunk in chunks:
                handoff[0] = clock()
                yield chunk
            handoff[0] = clock()  # the flush closes the remaining windows

        engine = StreamEngine(factory, database=database, window=window, sinks=[sink])
        start = clock()
        stats = engine.run_chunked(feed())
        wall_s = clock() - start
        return {
            "wall_s": wall_s,
            "frames": stats.frames,
            "latencies_s": [last[index] - first[index] for index in sorted(last)],
            "windows": {str(index): matches.get(index, []) for index in sorted(last)},
            "layer_extra": {"streaming.engine.events": stats.events},
        }

    return run_passes(prepare, run_pass, database, args)


# -- sensor-fleet (server side) -------------------------------------------
def sensor_fleet(args) -> dict | None:
    from repro.core.parameters import parameter_by_name
    from repro.service import server
    from repro.streaming.windows import WindowConfig

    config = server.ServiceConfig(
        parameter=parameter_by_name(inputs.LIVE_PARAMETER),
        shard_count=inputs.FLEET_SHARDS,
        window=WindowConfig(window_s=inputs.LIVE_WINDOW_S),
        min_observations=inputs.LIVE_MIN_OBSERVATIONS,
        queue_chunks=inputs.FLEET_QUEUE_CHUNKS,
        checkpoint_every_chunks=inputs.FLEET_CHECKPOINT_EVERY,
    )
    # Per-chunk latency: from the reader thread decoding a chunk to the
    # worker thread finishing its ingest (queue wait included).
    arrived: dict[int, float] = {}
    latencies: list[float] = []

    class TimedServer(server.IngestServer):
        def _decoded_chunks(self, records, state):
            for table in super()._decoded_chunks(records, state):
                arrived[id(table)] = clock()
                yield table

    ingest = server.SensorPipeline.ingest

    def timed_ingest(pipeline, table) -> None:
        stamp = arrived.pop(id(table), None)
        ingest(pipeline, table)
        if stamp is not None:
            latencies.append(clock() - stamp)

    server.SensorPipeline.ingest = timed_ingest
    passes: list[dict] = []
    tracer: Tracer | None = None
    since = 0.0
    number = 0
    try:
        while True:
            service = TimedServer(config, checkpoint_dir=args.work / f"checkpoints-{number}")
            with service:
                ready(f"LISTEN {service.listen()}")
                if args.setup_only:
                    return None
                if not service.wait_for_sessions(len(inputs.FLEET_SENSORS), timeout=150.0):
                    raise RuntimeError("sensor sessions did not complete")
                service.publish(args.work / f"published-{number}")
                ready(f"PUBLISHED {number}")
                stats = service.stats()
            passes.append(
                {
                    "frames": stats.frames,
                    "latencies_s": latencies[:],
                    "queue_peak": stats.queue_peak,
                    "events": sum(sensor.events for sensor in stats.sensors),
                    "sensors": [sensor.to_dict() for sensor in stats.sensors],
                }
            )
            latencies.clear()
            if tracer is not None:
                tracer.restore()
            command = sys.stdin.readline().split()
            number += 1
            if not command or command[0] == "stop":
                break
            if command[0] == "trace":
                tracer = Tracer()
                layers.install(tracer)
                since = clock()
    finally:
        server.SensorPipeline.ingest = ingest
    result: dict = {"passes": passes}
    if tracer is not None:
        result["spans"] = [span._asdict() for span in tracer.spans]
        traced_wall, untraced_wall = float(command[1]), float(command[2])
        last = passes[-1]
        result["layers"] = layers.metrics(
            tracer,
            since,
            traced_wall,
            untraced_wall,
            {
                "streaming.engine.events": last["events"],
                "service.server.queue_peak_chunks": last["queue_peak"],
            },
        )
    return result


WORKLOADS = {
    "scenario-matrix": scenario_matrix,
    "live-stream": live_stream,
    "sensor-fleet": sensor_fleet,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    result = WORKLOADS[args.workload](args)
    if result is None:
        return 0
    result["peak_rss_mb"] = peak_rss_mb()
    spans = result.pop("spans", None)
    if spans is not None:
        (args.work / "spans.json").write_text(json.dumps(spans))
    (args.work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
