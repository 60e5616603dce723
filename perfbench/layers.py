"""Which public calls of each layer the traced run times, and how the
spans reduce to the per-layer metrics.

Span names are ``<layer>.<call>``.  Layer times are self times (a
span's duration minus its child spans) unless noted, so the self times
of all spans in one thread add up to the time covered by its outermost
spans.  A layer that does not run in a workload reports zeros.
"""

from __future__ import annotations

from pathlib import Path

from tracer import Tracer

#: Every per-layer metric, in report order, with its unit.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("simulator.run_s", "s"),
    ("simulator.frames", "count"),
    ("simulator.frames_per_s", "1/s"),
    ("traces.intern_s", "s"),
    ("traces.rows", "count"),
    ("core.parameters.observe_s", "s"),
    ("core.parameters.observations", "count"),
    ("core.histogram.bin_s", "s"),
    ("core.signature.build_s", "s"),
    ("core.signature.signatures", "count"),
    ("core.database.learn_s", "s"),
    ("core.database.pack_s", "s"),
    ("core.database.add_s", "s"),
    ("core.database.merge_s", "s"),
    ("core.matcher.calls", "count"),
    ("core.matcher.pairs", "count"),
    ("core.matcher.gemm_s", "s"),
    ("core.matcher.normalize_s", "s"),
    ("core.matcher.epilogue_s", "s"),
    ("core.matcher.noncosine_s", "s"),
    ("core.detection.candidates_s", "s"),
    ("core.detection.similarity_test_s", "s"),
    ("core.detection.identification_test_s", "s"),
    ("core.detection.candidates", "count"),
    ("evaluation.cells", "count"),
    ("evaluation.self_s", "s"),
    ("streaming.windows.route_s", "s"),
    ("streaming.windows.closed", "count"),
    ("streaming.windows.candidate_ratio", "ratio"),
    ("streaming.builder.scatter_s", "s"),
    ("streaming.builder.observations_kept", "count"),
    ("streaming.matcher.self_s", "s"),
    ("streaming.matcher.best_s", "s"),
    ("streaming.matcher.candidates", "count"),
    ("streaming.engine.self_s", "s"),
    ("streaming.engine.chunks", "count"),
    ("streaming.engine.events", "count"),
    ("service.wire.decode_s", "s"),
    ("service.wire.bytes", "bytes"),
    ("service.wire.errors", "count"),
    ("service.wire.encode_s", "s"),
    ("service.router.partition_s", "s"),
    ("service.router.amplification", "ratio"),
    ("service.server.ingest_s", "s"),
    ("service.server.queue_wait_s", "s"),
    ("service.server.queue_peak_chunks", "count"),
    ("service.server.merge_s", "s"),
    ("service.server.inline_ratio", "ratio"),
    ("service.server.single_engine_mismatch", "count"),
    ("persistence.checkpoint_s", "s"),
    ("persistence.checkpoints", "count"),
    ("persistence.save_s", "s"),
    ("persistence.load_s", "s"),
    ("persistence.bytes_written", "bytes"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.self_sum_ratio", "ratio"),
    ("trace.spans", "count"),
)


def _size(path: Path) -> int:
    if path.is_dir():
        return sum(child.stat().st_size for child in path.rglob("*") if child.is_file())
    return path.stat().st_size


def install(tracer: Tracer) -> None:
    """Wrap every public call the per-layer metrics are built from."""
    import repro.core.database as database
    import repro.core.detection  # noqa: F401  (imports the names patched below)
    import repro.core.histogram as histogram
    import repro.core.matcher  # noqa: F401
    import repro.core.parameters as parameters
    import repro.core.signature as signature
    import repro.evaluation.matrix  # noqa: F401
    import repro.persistence.checkpoint  # noqa: F401
    import repro.persistence.store  # noqa: F401
    import repro.service.router as router
    import repro.service.server as server
    import repro.service.session  # noqa: F401
    import repro.simulator.scenario as scenario
    import repro.streaming.builder as builder
    import repro.streaming.engine as engine
    import repro.streaming.matcher as online
    import repro.streaming.windows as windows
    import repro.traces.table as table
    from repro.core.similarity import cosine_similarity

    count = tracer.count
    tracer.patch_method(
        scenario.Scenario, "run", "simulator.run",
        on_result=lambda t, a, k, r: count("simulator.frames", len(r.captures)),
    )
    tracer.patch_method(
        table.FrameTable, "from_frames", "traces.intern",
        on_result=lambda t, a, k, r: count("traces.rows", len(r)),
    )
    for cls in vars(parameters).values():
        if isinstance(cls, type) and cls.__module__ == parameters.__name__:
            if "observe_table" in cls.__dict__:
                tracer.patch_method(
                    cls, "observe_table", "core.parameters.observe_table",
                    on_result=lambda t, a, k, r: r is not None
                    and count("core.parameters.observations", len(r.values)),
                )
            if "push_table" in cls.__dict__:
                tracer.patch_method(cls, "push_table", "core.parameters.push_table")
    for cls in (histogram.UniformBins, histogram.CategoricalBins):
        tracer.patch_method(cls, "index_many", "core.histogram.index_many")
    tracer.patch_method(
        signature.SignatureBuilder, "build_binned", "core.signature.build_binned",
        on_result=lambda t, a, k, r: count("core.signature.signatures", len(r)),
    )
    reference = database.ReferenceDatabase
    tracer.patch_method(reference, "from_training_table", "core.database.learn")
    tracer.patch_method(reference, "packed", "core.database.pack")
    tracer.patch_method(reference, "add", "core.database.add")
    tracer.patch_function(database.__name__, "merge_databases", "core.database.merge")

    def match_name(candidates, db, measure=cosine_similarity):
        return "core.matcher.match" if measure is cosine_similarity else "core.matcher.noncosine"

    def match_counts(t, args, kwargs, result):
        count("core.matcher.calls")
        count("core.matcher.pairs", result.size)

    tracer.patch_function(
        "repro.core.matcher", "batch_match_signatures", match_name, on_result=match_counts
    )
    tracer.patch_function(
        "repro.core.matcher", "unit_cosine_product", "core.matcher.gemm", only_here=True
    )
    tracer.patch_function(
        "repro.core.matcher", "normalize_rows", "core.matcher.normalize", only_here=True
    )
    tracer.patch_function(
        "repro.core.detection", "extract_window_candidates", "core.detection.candidates",
        on_result=lambda t, a, k, r: count("core.detection.candidates", len(r)),
    )
    tracer.patch_function(
        "repro.core.detection", "evaluate_similarity", "core.detection.similarity_test"
    )
    tracer.patch_function(
        "repro.core.detection", "evaluate_identification",
        "core.detection.identification_test",
    )
    tracer.patch_function(
        "repro.evaluation.matrix", "evaluate_cell", "evaluation.cell",
        on_result=lambda t, a, k, r: count("evaluation.cells"),
    )

    def closed(window) -> None:
        count("streaming.windows.closed")
        count("streaming.windows.candidates", len(window.signatures))
        count("streaming.windows.senders", len(window.senders))

    tracer.patch_generator_method(
        windows.WindowManager, "update_table", "streaming.windows.route",
        on_item=lambda t, item: item[0] == "closed" and closed(item[1]),
    )
    tracer.patch_method(
        windows.WindowManager, "flush", "streaming.windows.flush",
        on_result=lambda t, a, k, r: [closed(window) for window in r],
    )
    tracer.patch_method(
        builder.StreamingSignatureBuilder, "update_table", "streaming.builder.scatter",
        on_result=lambda t, a, k, r: count("streaming.builder.observations_kept", r),
    )
    tracer.patch_method(
        online.OnlineMatcher, "match_window", "streaming.matcher.match_window",
        on_result=lambda t, a, k, r: count("streaming.matcher.candidates", len(r)),
    )
    tracer.patch_method(online.StreamCandidate, "best", "streaming.matcher.best")
    tracer.patch_method(
        engine.StreamEngine, "process_chunk", "streaming.engine.process_chunk",
        on_result=lambda t, a, k, r: count("streaming.engine.chunks"),
    )
    tracer.patch_method(engine.StreamEngine, "flush", "streaming.engine.flush")

    # Queue wait: from the reader thread decoding a chunk to the worker
    # thread starting to ingest it (blocking on a full queue included).
    decoded_at: dict[int, float] = {}

    def decoded(t, args, kwargs, result):
        count("service.wire.bytes", len(args[0]))
        decoded_at[id(result)] = t.clock()

    tracer.patch_function(
        "repro.service.wire", "decode_chunk", "service.wire.decode", on_result=decoded,
        on_error=lambda t, error: count("service.wire.errors"),
    )
    tracer.patch_function("repro.service.wire", "encode_chunk", "service.wire.encode")

    def partitioned(t, args, kwargs, result):
        count("service.router.rows_in", len(args[1]))
        count("service.router.rows_out", sum(len(part) for part in result))

    tracer.patch_method(
        router.ShardRouter, "partition", "service.router.partition", on_result=partitioned
    )
    ingest = server.SensorPipeline.ingest

    def waited_ingest(pipeline, table):
        stamp = decoded_at.pop(id(table), None)
        if stamp is not None:
            count("service.server.queue_wait_s", tracer.clock() - stamp)
        return ingest(pipeline, table)

    tracer._set(server.SensorPipeline, "ingest", waited_ingest)
    tracer.patch_method(server.SensorPipeline, "ingest", "service.server.ingest")
    tracer.patch_method(
        server.IngestServer, "merged_database", "service.server.merged_database"
    )
    tracer.patch_method(
        server.SensorPipeline, "checkpoint", "persistence.sensor_checkpoint",
        on_result=lambda t, a, k, r: count("persistence.checkpoints"),
    )
    written = lambda t, a, k, r: count("persistence.bytes_written", _size(Path(r)))
    tracer.patch_function(
        "repro.persistence.checkpoint", "save_checkpoint", "persistence.save_checkpoint",
        on_result=written,
    )
    tracer.patch_function(
        "repro.persistence.store", "save_database", "persistence.save_database",
        on_result=written,
    )
    tracer.patch_function(
        "repro.persistence.store", "load_database", "persistence.load_database"
    )


def metrics(
    tracer: Tracer, since: float, wall_s: float, untraced_s: float, extra: dict | None = None
) -> dict[str, float]:
    """Reduce the spans of one traced pass to the per-layer metrics."""
    spans = tracer.reduce(since)
    counters = tracer.counters

    def self_s(*names: str) -> float:
        return sum(spans[name]["self_s"] for name in names if name in spans)

    def total_s(*names: str) -> float:
        return sum(spans[name]["total_s"] for name in names if name in spans)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    values = {
        "simulator.run_s": total_s("simulator.run"),
        "simulator.frames": counters["simulator.frames"],
        "simulator.frames_per_s": ratio(
            counters["simulator.frames"], total_s("simulator.run")
        ),
        "traces.intern_s": self_s("traces.intern"),
        "traces.rows": counters["traces.rows"],
        "core.parameters.observe_s": self_s(
            "core.parameters.observe_table", "core.parameters.push_table"
        ),
        "core.parameters.observations": counters["core.parameters.observations"],
        "core.histogram.bin_s": self_s("core.histogram.index_many"),
        "core.signature.build_s": self_s("core.signature.build_binned"),
        "core.signature.signatures": counters["core.signature.signatures"],
        "core.database.learn_s": self_s("core.database.learn"),
        "core.database.pack_s": self_s("core.database.pack"),
        "core.database.add_s": self_s("core.database.add"),
        "core.database.merge_s": self_s("core.database.merge"),
        "core.matcher.calls": counters["core.matcher.calls"],
        "core.matcher.pairs": counters["core.matcher.pairs"],
        "core.matcher.gemm_s": self_s("core.matcher.gemm"),
        "core.matcher.normalize_s": self_s("core.matcher.normalize"),
        "core.matcher.epilogue_s": self_s("core.matcher.match"),
        "core.matcher.noncosine_s": total_s("core.matcher.noncosine"),
        "core.detection.candidates_s": self_s("core.detection.candidates"),
        "core.detection.similarity_test_s": self_s("core.detection.similarity_test"),
        "core.detection.identification_test_s": self_s(
            "core.detection.identification_test"
        ),
        "core.detection.candidates": counters["core.detection.candidates"],
        "evaluation.cells": counters["evaluation.cells"],
        "evaluation.self_s": self_s("evaluation.cell"),
        "streaming.windows.route_s": self_s(
            "streaming.windows.route", "streaming.windows.flush"
        ),
        "streaming.windows.closed": counters["streaming.windows.closed"],
        "streaming.windows.candidate_ratio": ratio(
            counters["streaming.windows.candidates"], counters["streaming.windows.senders"]
        ),
        "streaming.builder.scatter_s": self_s("streaming.builder.scatter"),
        "streaming.builder.observations_kept": counters[
            "streaming.builder.observations_kept"
        ],
        "streaming.matcher.self_s": self_s("streaming.matcher.match_window"),
        "streaming.matcher.best_s": self_s("streaming.matcher.best"),
        "streaming.matcher.candidates": counters["streaming.matcher.candidates"],
        "streaming.engine.self_s": self_s(
            "streaming.engine.process_chunk", "streaming.engine.flush"
        ),
        "streaming.engine.chunks": counters["streaming.engine.chunks"],
        "streaming.engine.events": 0,
        "service.wire.decode_s": self_s("service.wire.decode"),
        "service.wire.bytes": counters["service.wire.bytes"],
        "service.wire.errors": counters["service.wire.errors"],
        "service.wire.encode_s": total_s("service.wire.encode"),
        "service.router.partition_s": self_s("service.router.partition"),
        "service.router.amplification": ratio(
            counters["service.router.rows_out"], counters["service.router.rows_in"]
        ),
        "service.server.ingest_s": self_s("service.server.ingest"),
        "service.server.queue_wait_s": counters["service.server.queue_wait_s"],
        "service.server.queue_peak_chunks": 0,
        "service.server.merge_s": total_s("service.server.merged_database"),
        "service.server.inline_ratio": 0.0,
        "service.server.single_engine_mismatch": 0,
        "persistence.checkpoint_s": total_s("persistence.sensor_checkpoint"),
        "persistence.checkpoints": counters["persistence.checkpoints"],
        "persistence.save_s": total_s("persistence.save_database"),
        "persistence.load_s": total_s("persistence.load_database"),
        "persistence.bytes_written": counters["persistence.bytes_written"],
        "trace.wall_s": wall_s,
        "trace.overhead_s": wall_s - untraced_s,
        "trace.self_sum_ratio": ratio(
            sum(entry["self_s"] for entry in spans.values()), wall_s
        ),
        "trace.spans": sum(entry["calls"] for entry in spans.values()),
    }
    values.update(extra or {})
    if set(values) != {name for name, _ in PER_LAYER}:
        raise RuntimeError("per-layer metrics and PER_LAYER disagree")
    return {
        name: int(values[name]) if unit in ("count", "bytes") else float(values[name])
        for name, unit in PER_LAYER
    }
