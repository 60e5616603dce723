"""Multi-sensor ingest service: equivalence, resume, backpressure.

The load-bearing claims (DESIGN.md §9) pinned here:

* **Concurrent == sequential**: K sensors streaming interleaved over
  TCP produce a merged reference database bin-for-bin identical to
  :func:`repro.service.run_inline` — the no-threads no-sockets
  reference — and per-sensor event streams identical to their inline
  pipelines.
* **Kill-and-resume identity**: a sensor session aborted mid-stream
  (no END record) is checkpointed; re-sending the same capture —
  against the live server or a freshly restarted one — replays the
  remainder event-for-event identically to an uninterrupted run.
* **Torn checkpoints**: a crash at any write of a sensor checkpoint
  leaves the previous snapshot whole, and resuming from it equals the
  uninterrupted run; a version-1 manifest, which may describe a torn
  snapshot, is refused, and so is any manifest its writer could not
  have written.
* **Malformed chunks**: a chunk with a valid checksum but values no
  captured frame could hold pauses its sensor instead of killing the
  ingest worker.
* **Backpressure**: the per-sensor ingest queue never exceeds its
  configured bound.
* **Single-engine reference**: the service's database against one
  engine over the same capture; the clock parameters still depend on
  the shard count (strict xfails).
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import threading
import time

import numpy as np
import pytest

from repro.core.database import ReferenceDatabase
from repro.core.parameters import (
    InterArrivalTime,
    TransmissionRate,
    TransmissionTime,
    parameter_by_name,
)
from repro.persistence.store import load_database
from repro.scenarios.library import build_scenario
from repro.service import (
    IngestServer,
    ReferenceHarvester,
    SensorPipeline,
    SensorSession,
    ServiceConfig,
    ShardRouter,
    run_inline,
)
from repro.streaming import (
    CollectingSink,
    StreamEngine,
    StreamingSignatureBuilder,
    WindowConfig,
    replay_chunk_source,
    table_chunks,
)
from repro.service.server import MANIFEST_VERSION
from repro.traces.table import FrameTable

from tests.test_persistence import assert_databases_equal
from tests.test_streaming_chunked import synth_frames

#: A manifest field deleted instead of set.
MISSING = object()


def make_config(**overrides) -> ServiceConfig:
    defaults = dict(
        parameter=InterArrivalTime(),
        shard_count=3,
        window=WindowConfig(window_s=0.5),
        min_observations=5,
        queue_chunks=4,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def sensor_captures(
    count_sensors: int = 3, frames: int = 900, chunk_frames: int = 64
) -> dict[str, list[FrameTable]]:
    """Per-sensor chunk lists — overlapping devices, distinct timing."""
    captures = {}
    for i in range(count_sensors):
        table = FrameTable.from_frames(
            synth_frames(count=frames, seed=100 + i, devices=4 + i)
        )
        captures[f"sensor-{i}"] = list(replay_chunk_source(table, chunk_frames))
    return captures


def wait_until(predicate, timeout: float = 10.0, interval: float = 0.01) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached before timeout")
        time.sleep(interval)


class SinkRegistry:
    """A ``sink_factory`` that remembers every sensor's sink."""

    def __init__(self) -> None:
        self.sinks: dict[str, CollectingSink] = {}

    def __call__(self, sensor: str) -> CollectingSink:
        sink = self.sinks.setdefault(sensor, CollectingSink())
        return sink


class TestShardRouter:
    def setup_method(self) -> None:
        self.table = FrameTable.from_frames(synth_frames(count=600, seed=7))

    def test_partition_covers_rows_and_broadcasts_sentinels(self):
        router = ShardRouter(shard_count=3)
        parts = router.partition(self.table)
        assert len(parts) == 3
        sentinel_total = int((self.table.sender_idx == -1).sum())
        attributable = 0
        for part in parts:
            part_sentinels = int((part.sender_idx == -1).sum())
            assert part_sentinels == sentinel_total  # broadcast to every shard
            attributable += len(part) - part_sentinels
            # Relative order survives the mask selection.
            assert (part.timestamp_us[1:] >= part.timestamp_us[:-1]).all()
        assert attributable == len(self.table) - sentinel_total

    def test_each_sender_lands_on_exactly_one_shard(self):
        router = ShardRouter(shard_count=4)
        parts = router.partition(self.table)
        for idx, sender in enumerate(self.table.senders):
            owner = router.shard_of(sender)
            for shard, part in enumerate(parts):
                rows = int((part.sender_idx == idx).sum())
                expected = int((self.table.sender_idx == idx).sum())
                assert rows == (expected if shard == owner else 0)

    def test_all_ack_chunk_goes_whole_to_every_shard(self):
        """A chunk of nothing but ACK/CTS rows interns no sender."""
        acks = FrameTable.from_frames(
            [frame for frame in synth_frames(count=600, seed=7) if frame.sender is None]
        )
        assert len(acks) > 0 and acks.senders == ()
        parts = ShardRouter(shard_count=4).partition(acks)
        assert len(parts) == 4
        for part in parts:
            assert np.array_equal(part.timestamp_us, acks.timestamp_us)
            assert np.array_equal(part.sender_idx, acks.sender_idx)

    def test_single_shard_is_passthrough(self):
        router = ShardRouter(shard_count=1)
        parts = router.partition(self.table)
        assert parts == [self.table]

    def test_routing_is_stable_across_instances(self):
        a, b = ShardRouter(5), ShardRouter(5)
        for sender in self.table.senders:
            assert a.shard_of(sender) == b.shard_of(sender)


class TestMultiSensorEquivalence:
    def test_concurrent_service_matches_sequential_inline(self, tmp_path):
        captures = sensor_captures(3)
        config = make_config()

        service_sinks = SinkRegistry()
        with IngestServer(config, sink_factory=service_sinks) as server:
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
            for thread in threads:
                thread.join(timeout=60.0)
            assert server.wait_for_sessions(len(captures), timeout=60.0)
            merged = server.merged_database()
            shard_dbs = server.shard_databases()
            stats = server.stats()

        inline_sinks = SinkRegistry()
        inline = run_inline(captures, config, sink_factory=inline_sinks)

        # The one shared database: bin-for-bin identical.
        assert len(merged.devices) > 0
        assert_databases_equal(merged, inline.database)
        # Each shard's learnt sub-database matches too.
        for service_shard, inline_shard in zip(shard_dbs, inline.shard_databases):
            assert_databases_equal(service_shard, inline_shard)
        # Per-sensor event streams are identical despite concurrency.
        for sensor in captures:
            assert (
                service_sinks.sinks[sensor].events
                == inline_sinks.sinks[sensor].events
            )
        # Counters line up with what the sensors shipped.
        expected_frames = sum(
            sum(len(chunk) for chunk in chunks) for chunks in captures.values()
        )
        assert stats.frames == expected_frames
        assert all(sensor.completed for sensor in stats.sensors)

    @pytest.mark.parametrize("shards", [2, 4])
    def test_one_frame_chunks_equal_one_chunk(self, small_office_trace, shards):
        """In 1-frame chunks every ACK is a chunk with no sender."""
        config = make_config(
            shard_count=shards,
            window=WindowConfig(window_s=10.0),
            min_observations=20,
        )
        whole = run_inline({"sensor-0": [small_office_trace.table()]}, config)
        split = run_inline(
            {"sensor-0": table_chunks(small_office_trace.frames, 1)}, config
        )
        assert len(whole.database) > 0
        assert_databases_equal(split.database, whole.database)
        fields = ("windows_closed", "candidates", "events", "peak_resident_devices")
        assert [[getattr(s, f) for f in fields] for s in split.stats()] == [
            [getattr(s, f) for f in fields] for s in whole.stats()
        ]

    def test_single_shard_service_matches_plain_engine(self):
        captures = sensor_captures(1, frames=600)
        (sensor, chunks), = captures.items()
        config = make_config(shard_count=1, parameter=TransmissionRate())

        with IngestServer(config) as server:
            port = server.listen()
            SensorSession(sensor, chunks).connect("127.0.0.1", port)
            assert server.wait_for_sessions(1, timeout=60.0)
            merged = server.merged_database()

        # An independently wired engine + harvester, no service layer.
        reference = ReferenceDatabase()
        engine = StreamEngine(
            config.builder_factory,
            window=config.window,
            analyzers=[ReferenceHarvester(reference)],
        )
        engine.run_chunked(iter(chunks))

        assert len(merged.devices) > 0
        assert_databases_equal(merged, reference)

    def test_publish_writes_loadable_store(self, tmp_path):
        captures = sensor_captures(2, frames=500)
        config = make_config(shard_count=2)
        with IngestServer(config) as server:
            port = server.listen()
            for sensor, chunks in captures.items():
                SensorSession(sensor, chunks).connect("127.0.0.1", port)
            assert server.wait_for_sessions(2, timeout=60.0)
            store = server.publish(tmp_path / "refs.store")
            merged = server.merged_database()
        loaded = load_database(store)
        assert loaded.parameter == config.parameter.name
        assert_databases_equal(loaded.database, merged)


#: Each shard engine keeps its own channel clock, which skips the
#: other shards' frames, so the clock parameters' signatures depend on
#: ``shard_count``.
SHARD_CLOCK_SKEW = pytest.mark.xfail(
    strict=True,
    reason="shard engines keep separate channel clocks "
    "(ROADMAP: one engine per sensor)",
)


def single_engine_cases():
    for name in ("rate", "size", "txtime", "interarrival", "access"):
        for shards in (1, 2, 4):
            skewed = name in ("interarrival", "access") and shards > 1
            yield pytest.param(
                name,
                shards,
                marks=SHARD_CLOCK_SKEW if skewed else (),
                id=f"{name}-K{shards}",
            )


@pytest.fixture(scope="module")
def lecture_hall_table() -> FrameTable:
    """A dense capture on which shard clocks visibly diverge."""
    trace = build_scenario("lecture-hall", duration_s=40.0, scale=0.5).simulate()
    return trace.table()


class TestSingleEngineEquivalence:
    """The service's database against the unpartitioned reference: one
    :class:`StreamEngine` harvesting the same capture."""

    @pytest.mark.parametrize("name, shards", list(single_engine_cases()))
    def test_service_equals_one_engine(self, lecture_hall_table, name, shards):
        config = make_config(
            parameter=parameter_by_name(name),
            shard_count=shards,
            window=WindowConfig(window_s=10.0),
            min_observations=20,
        )
        service = run_inline({"sensor-0": [lecture_hall_table]}, config).database
        reference = ReferenceDatabase()
        engine = StreamEngine(
            config.builder_factory,
            window=config.window,
            analyzers=[ReferenceHarvester(reference)],
        )
        engine.run_chunked(iter([lecture_hall_table]))

        assert len(reference) > 0
        assert set(service.devices) == set(reference.devices)
        # Shards merge in shard order; compare in the engine's order.
        reordered = ReferenceDatabase()
        for device in reference.devices:
            reordered.add(device, service.get(device))
        assert_databases_equal(reordered, reference)


class TestKillAndResume:
    def _uninterrupted(self, sensor, chunks, config):
        sinks = SinkRegistry()
        result = run_inline({sensor: chunks}, config, sink_factory=sinks)
        return result.database, sinks.sinks[sensor].events

    def test_killed_session_resumes_event_for_event(self, tmp_path):
        captures = sensor_captures(1, frames=800)
        (sensor, chunks), = captures.items()
        config = make_config()
        baseline_db, baseline_events = self._uninterrupted(sensor, chunks, config)

        sinks = SinkRegistry()
        ckpt = tmp_path / "ckpts"
        with IngestServer(config, checkpoint_dir=ckpt, sink_factory=sinks) as server:
            port = server.listen()
            # Phase 1: the sensor dies after 5 chunks, END never sent.
            report = SensorSession(sensor, chunks).connect(
                "127.0.0.1", port, abort_after_chunks=5
            )
            assert not report.ended
            # The pause checkpoint lands once the worker drains the queue.
            assert server.wait_for_detach(sensor, timeout=30.0)
            assert SensorPipeline.has_checkpoint(ckpt, sensor)
            frames_at_pause = server.stats().sensors[0].frames
            assert 0 < frames_at_pause < sum(len(c) for c in chunks)

            # Phase 2: reconnect, re-send the whole capture; the server
            # trims the already-processed prefix.
            report = SensorSession(sensor, chunks).connect("127.0.0.1", port)
            assert report.ended
            assert server.wait_for_sessions(1, timeout=60.0)
            merged = server.merged_database()
            stats = server.stats().sensors[0]

        assert stats.frames == sum(len(c) for c in chunks)
        assert stats.completed
        assert_databases_equal(merged, baseline_db)
        # Same events, same order, nothing dropped or duplicated.
        assert sinks.sinks[sensor].events == baseline_events

    def test_resume_survives_server_restart(self, tmp_path):
        captures = sensor_captures(1, frames=800)
        (sensor, chunks), = captures.items()
        config = make_config()
        baseline_db, baseline_events = self._uninterrupted(sensor, chunks, config)

        ckpt = tmp_path / "ckpts"
        first_sinks = SinkRegistry()
        with IngestServer(
            config, checkpoint_dir=ckpt, sink_factory=first_sinks
        ) as server:
            port = server.listen()
            report = SensorSession(sensor, chunks).connect(
                "127.0.0.1", port, abort_after_chunks=4
            )
            assert not report.ended
            assert server.wait_for_detach(sensor, timeout=30.0)
            assert SensorPipeline.has_checkpoint(ckpt, sensor)
        phase1_events = list(first_sinks.sinks[sensor].events)

        # A brand-new server process restores the sensor from disk.
        second_sinks = SinkRegistry()
        with IngestServer(
            config, checkpoint_dir=ckpt, sink_factory=second_sinks
        ) as server:
            port = server.listen()
            report = SensorSession(sensor, chunks).connect("127.0.0.1", port)
            assert report.ended
            assert server.wait_for_sessions(1, timeout=60.0)
            merged = server.merged_database()
            stats = server.stats().sensors[0]

        assert stats.resumed_from_frames > 0
        assert stats.frames == sum(len(c) for c in chunks)
        assert_databases_equal(merged, baseline_db)
        # Pre-crash events plus post-restore events == uninterrupted run.
        replayed = phase1_events + list(second_sinks.sinks[sensor].events)
        assert replayed == baseline_events

    @pytest.mark.parametrize("crash_after", range(6))
    def test_crash_mid_checkpoint_resumes_like_uninterrupted_run(
        self, tmp_path, monkeypatch, crash_after
    ):
        """The second checkpoint dies after its ``crash_after``-th write
        (three engine files, then three harvest stores).  The previous
        snapshot stays whole: restoring it and re-sending the capture
        reproduces the uninterrupted run's events and stats."""
        import repro.persistence.store as store

        config = make_config()
        sensor = "sensor-0"
        chunks = sensor_captures(1, frames=900)[sensor]
        baseline_sink = CollectingSink()
        baseline = SensorPipeline(sensor, config, sinks=[baseline_sink])
        for chunk in chunks:
            baseline.ingest(chunk)
        baseline.finish()

        sink = CollectingSink()
        pipeline = SensorPipeline(sensor, config, sinks=[sink])
        for chunk in chunks[:5]:
            pipeline.ingest(chunk)
        pipeline.checkpoint(tmp_path)
        events_at_checkpoint = len(sink.events)
        for chunk in chunks[5:9]:
            pipeline.ingest(chunk)

        writes = []

        def crashing(write):
            def wrapper(*args, **kwargs):
                result = write(*args, **kwargs)
                writes.append(args[1])
                if len(writes) > crash_after:
                    raise OSError("simulated crash mid-checkpoint")
                return result

            return wrapper

        monkeypatch.setattr(StreamEngine, "checkpoint", crashing(StreamEngine.checkpoint))
        monkeypatch.setattr(store, "save_database", crashing(store.save_database))
        with pytest.raises(OSError, match="simulated crash"):
            pipeline.checkpoint(tmp_path)
        monkeypatch.undo()
        assert len(writes) == crash_after + 1

        resumed_sink = CollectingSink()
        restored = SensorPipeline.restore(tmp_path, sensor, config, sinks=[resumed_sink])
        assert restored.frames == sum(len(chunk) for chunk in chunks[:5])
        for chunk in restored.resume_trimmed(chunks):
            restored.ingest(chunk)
        restored.finish()
        replayed = sink.events[:events_at_checkpoint] + resumed_sink.events
        assert replayed == baseline_sink.events
        stats = restored.stats()
        assert stats.resumed_from_frames == restored.resumed_from_frames > 0
        assert dataclasses.replace(stats, resumed_from_frames=0) == baseline.stats()
        for ours, theirs in zip(restored.harvests, baseline.harvests):
            assert_databases_equal(ours, theirs)

    def test_checkpoint_keeps_only_the_newest_snapshot(self, tmp_path):
        config = make_config()
        pipeline = SensorPipeline("sensor-0", config)
        chunks = sensor_captures(1, frames=300)["sensor-0"]
        pipeline.ingest(chunks[0])
        pipeline.checkpoint(tmp_path)
        pipeline.ingest(chunks[1])
        base = pipeline.checkpoint(tmp_path)
        assert sorted(path.name for path in base.iterdir()) == [
            "manifest.json",
            "snapshot-2",
        ]
        manifest = json.loads((base / "manifest.json").read_text())
        assert manifest["snapshot"] == "snapshot-2"

    @pytest.mark.parametrize("version", [1, 2])
    def test_version_1_manifest_is_refused(self, tmp_path, version):
        """A version-1 snapshot overwrote its shard files in place, so
        it may mix two snapshots, and a version-2 fingerprint names the
        idle timeout this build no longer has: restoring either is
        refused by its version number."""
        config = make_config()
        pipeline = SensorPipeline("sensor-0", config)
        for chunk in sensor_captures(1, frames=300)["sensor-0"]:
            pipeline.ingest(chunk)
        base = pipeline.checkpoint(tmp_path)
        manifest_path = base / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["version"] = version
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=f"version {version}.*re-ingest"):
            SensorPipeline.restore(tmp_path, "sensor-0", config)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("version", str(MANIFEST_VERSION)),
            ("snapshot", "../sensor-1/snapshot-1"),
            ("snapshot", "snapshot-9"),
            ("snapshot", 1),
            ("frames", "12"),
            ("frames", 12.7),
            ("frames", -5),
            ("chunks", "12"),
            ("chunks", 12.7),
            ("chunks", -5),
            ("completed", "no"),
            ("horizon_us", float("nan")),
            ("horizon_us", "1e9"),
            ("horizon_us", None),
            ("frames", MISSING),
            ("snapshot", MISSING),
            ("horizon_us", MISSING),
        ],
    )
    def test_manifest_its_writer_never_writes_is_refused(
        self, tmp_path, monkeypatch, field, value
    ):
        """Every manifest field is checked before any engine is
        restored; a refusal names the sensor and the field."""
        config = make_config()
        for sensor, chunks in sensor_captures(2, frames=300).items():
            pipeline = SensorPipeline(sensor, config)
            for chunk in chunks:
                pipeline.ingest(chunk)
            pipeline.checkpoint(tmp_path)
        manifest_path = tmp_path / "sensor-0" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        if value is MISSING:
            del manifest[field]
        else:
            manifest[field] = value
        manifest_path.write_text(json.dumps(manifest))

        def restored(engine, path):
            raise AssertionError(f"engine restored from {path} before the check")

        monkeypatch.setattr(StreamEngine, "restore", restored)
        with pytest.raises(ValueError, match=f"sensor-0.*{field}"):
            SensorPipeline.restore(tmp_path, "sensor-0", config)

    def test_checkpoint_rejects_config_mismatch(self, tmp_path):
        config = make_config()
        pipeline = SensorPipeline("sensor-0", config)
        for chunk in sensor_captures(1, frames=300)["sensor-0"]:
            pipeline.ingest(chunk)
        pipeline.checkpoint(tmp_path)

        other = make_config(shard_count=4)
        with pytest.raises(ValueError, match="config mismatch"):
            SensorPipeline.restore(tmp_path, "sensor-0", other)

    def test_pipeline_checkpoint_round_trip(self, tmp_path):
        config = make_config()
        chunks = sensor_captures(1, frames=700)["sensor-0"]
        pipeline = SensorPipeline("sensor-0", config)
        for chunk in chunks[:6]:
            pipeline.ingest(chunk)
        pipeline.checkpoint(tmp_path)

        restored = SensorPipeline.restore(tmp_path, "sensor-0", config)
        assert restored.frames == pipeline.frames
        assert restored.chunks == pipeline.chunks
        assert restored.horizon_us == pipeline.horizon_us
        for a, b in zip(pipeline.harvests, restored.harvests):
            assert_databases_equal(a, b)

        # Feeding both the remaining chunks converges identically.
        for chunk in chunks[6:]:
            pipeline.ingest(chunk)
            restored.ingest(chunk)
        pipeline.finish()
        restored.finish()
        for a, b in zip(pipeline.harvests, restored.harvests):
            assert_databases_equal(a, b)


class TestServerBehaviour:
    def test_queue_depth_stays_bounded(self):
        captures = sensor_captures(2, frames=900, chunk_frames=32)
        config = make_config(queue_chunks=2)
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
            for thread in threads:
                thread.join(timeout=60.0)
            assert server.wait_for_sessions(2, timeout=60.0)
            stats = server.stats()
        assert stats.queue_peak <= config.queue_chunks
        assert stats.frames_per_s > 0

    def test_duplicate_active_sensor_rejected(self):
        config = make_config()
        server = IngestServer(config, attach_wait_s=0.1)
        try:
            server._attach("sensor-0")
            with pytest.raises(RuntimeError, match="already connected"):
                server._attach("sensor-0")
        finally:
            server.close()

    def test_completed_sensor_rejected(self):
        captures = sensor_captures(1, frames=300)
        (sensor, chunks), = captures.items()
        config = make_config()
        with IngestServer(config) as server:
            port = server.listen()
            SensorSession(sensor, chunks).connect("127.0.0.1", port)
            assert server.wait_for_sessions(1, timeout=60.0)
            with pytest.raises(RuntimeError, match="already completed"):
                server._attach(sensor)

    def test_garbage_after_hello_pauses_not_crashes(self):
        from repro.service.wire import RECORD_HELLO, encode_json

        config = make_config()
        with IngestServer(config) as server:
            port = server.listen()
            import socket as socket_module

            with socket_module.create_connection(("127.0.0.1", port)) as conn:
                conn.sendall(encode_json(RECORD_HELLO, {"sensor": "mangled"}))
                conn.sendall(b"\x00garbage-that-is-not-a-record\xff" * 4)
            wait_until(lambda: "mangled" in server._sensors)
            wait_until(lambda: not server._sensors["mangled"].attached)
            stats = server.stats()
        assert stats.sensors[0].sensor == "mangled"
        assert stats.sensors[0].frames == 0
        assert not stats.sensors[0].completed

    @pytest.mark.parametrize(
        "parameter, damage",
        [
            (InterArrivalTime(), {"timestamp_us": float("nan")}),
            (TransmissionTime(), {"size": 0.0, "rate_mbps": 0.0}),
        ],
        ids=["nan-timestamp", "zero-rate"],
    )
    def test_malformed_chunk_pauses_sensor(self, parameter, damage):
        """A chunk with a valid checksum but impossible values pauses
        its session: the sensor detaches, and a clean re-send completes
        with the uninterrupted run's database."""
        captures = sensor_captures(1, frames=600)
        (sensor, chunks), = captures.items()
        config = make_config(parameter=parameter)
        baseline = run_inline({sensor: chunks}, config).database
        good = chunks[3]
        columns = {
            name: getattr(good, name).copy()
            for name in ("timestamp_us", "size", "rate_mbps", "sender_idx", "ftype_idx", "flags")
        }
        for name, value in damage.items():
            columns[name][5] = value
        bad = FrameTable(senders=good.senders, ftype_keys=good.ftype_keys, **columns)
        with IngestServer(config) as server:
            port = server.listen()
            with contextlib.suppress(OSError):
                SensorSession(sensor, chunks[:3] + [bad]).connect("127.0.0.1", port)
            assert server.wait_for_detach(sensor, timeout=10.0)
            assert server.completed_sessions == 0
            assert server.stats().sensors[0].frames == sum(len(c) for c in chunks[:3])

            report = SensorSession(sensor, chunks).connect("127.0.0.1", port)
            assert report.ended
            assert server.wait_for_sessions(1, timeout=60.0)
            merged = server.merged_database()
            stats = server.stats().sensors[0]
        assert stats.completed
        assert stats.frames == sum(len(c) for c in chunks)
        assert_databases_equal(merged, baseline)

    @pytest.mark.parametrize("field", ["queue_chunks", "min_observations"])
    def test_config_refuses_counts_below_one(self, field):
        """Refused at construction, not when a sensor's first window opens."""
        with pytest.raises(ValueError, match=f"{field} must be >= 1"):
            make_config(**{field: 0})

    def test_bad_sensor_ids_rejected(self):
        with pytest.raises(ValueError):
            SensorPipeline("", make_config())
        with pytest.raises(ValueError):
            SensorPipeline("../escape", make_config())

    def test_stats_to_dict_shape(self):
        captures = sensor_captures(1, frames=400)
        (sensor, chunks), = captures.items()
        config = make_config()
        with IngestServer(config) as server:
            port = server.listen()
            SensorSession(sensor, chunks).connect("127.0.0.1", port)
            assert server.wait_for_sessions(1, timeout=60.0)
            payload = server.stats().to_dict()
        assert payload["shard_count"] == config.shard_count
        assert payload["frames"] == sum(len(c) for c in chunks)
        assert payload["sensors"][0]["sensor"] == sensor
        assert payload["sensors"][0]["completed"] is True
        assert payload["frames_per_s"] >= 0
