"""Long-running multi-sensor ingest service (DESIGN.md §9).

The paper's pipeline is one monitor feeding one matcher; the
production story is **many sensors feeding one reference database
concurrently**, as a service rather than a one-shot CLI run.
:class:`IngestServer` is that missing layer:

* each connected :class:`~repro.service.session.SensorSession` gets a
  dedicated reader thread (thread-per-sensor over local TCP) that
  decodes wire records into columnar chunks and hands them to a
  **bounded** per-sensor queue — when the pipeline falls behind, the
  reader stops pulling, the socket buffers fill and the sensor blocks:
  backpressure, not unbounded buffering;
* a per-sensor worker drains the queue into a
  :class:`SensorPipeline`: the chunk is partitioned across ``K``
  shard engines (:class:`~repro.streaming.engine.StreamEngine`) by the
  consistent-hash ring (:class:`~repro.service.router.ShardRouter`),
  and every closed detection window's gated signatures are folded into
  the sensor's per-shard harvest databases (latest window wins);
* per-sensor **checkpoint/resume** reuses
  :mod:`repro.persistence.checkpoint`: a manifest naming a snapshot
  directory that holds one engine checkpoint and one persisted harvest
  store per shard.  A restore checks the whole manifest before it
  restores any engine, and refuses one its writer could not have
  written (:meth:`SensorPipeline.restore`).  A
  sensor that dies mid-session is checkpointed; when it reconnects and
  re-sends its capture, the skip-processed trim replays the remainder
  **event-for-event identically** (``tests/test_service.py``);
* :meth:`IngestServer.merged_database` merges the per-sensor harvests
  into one shared reference database with the existing
  :func:`~repro.core.database.merge_databases` policies, in sorted
  sensor order — deterministic regardless of thread interleaving —
  and :meth:`IngestServer.publish` persists it as a database store.

Because routing is a pure per-row function and every (sensor, shard)
engine consumes only that sensor's shard partition, the service's
merged database is **bin-for-bin identical** to running each sensor's
traffic through one inline engine per shard sequentially
(:func:`run_inline`), no matter how the concurrent sessions interleave.
It is not always identical to one engine per sensor: a shard engine's
channel clock skips the other shards' frames, so the clock parameters'
signatures depend on ``shard_count`` (DESIGN.md §9).
"""

from __future__ import annotations

import json
import os
import queue
import shutil
import socket
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

from repro.core.database import ReferenceDatabase, merge_databases
from repro.core.parameters import NetworkParameter
from repro.persistence.checkpoint import checked_count, checked_time
from repro.service.router import VNODES, ShardRouter
from repro.service.wire import (
    RECORD_CHUNK,
    RECORD_END,
    RECORD_HELLO,
    WireError,
    decode_chunk,
    decode_json,
    iter_records,
)
from repro.streaming.apps import WindowAnalyzer
from repro.streaming.engine import StreamEngine
from repro.streaming.events import EventSink
from repro.streaming.builder import StreamingSignatureBuilder
from repro.streaming.sources import skip_processed_chunks
from repro.streaming.windows import ClosedWindow, WindowConfig
from repro.traces.table import FrameTable

#: Sensor-checkpoint manifest identifier and version.
MANIFEST_FORMAT = "repro-sensor-checkpoint"
MANIFEST_VERSION = 3

_MANIFEST_FILE = "manifest.json"
#: Snapshot directories are ``snapshot-<n>``; ``n`` is never reused.
_SNAPSHOT_PREFIX = "snapshot-"

#: Queue sentinels (identity-compared).
_END = object()
_PAUSE = object()


def _check_sensor_id(sensor: str) -> str:
    """Sensor ids double as checkpoint directory names — keep them tame."""
    if not sensor or not all(c.isalnum() or c in "._-" for c in sensor):
        raise ValueError(
            f"sensor id must be non-empty [A-Za-z0-9._-]: {sensor!r}"
        )
    return sensor


@dataclass(frozen=True)
class ServiceConfig:
    """Everything an ingest deployment fixes up front.

    The fingerprint (parameter, sharding, windowing, gating) is
    embedded in every sensor checkpoint manifest, so a restarted
    service refuses to resume state taken under different settings.
    """

    parameter: NetworkParameter
    shard_count: int = 4
    window: WindowConfig = field(default_factory=WindowConfig)
    min_observations: int = 50
    #: Bounded per-sensor ingest queue (chunks) — the backpressure knob.
    queue_chunks: int = 8
    #: Cross-sensor conflict policy for :meth:`IngestServer.merged_database`.
    merge_policy: str = "replace"
    #: Checkpoint a sensor every N consumed chunks (``None``: only on
    #: pause/completion).
    checkpoint_every_chunks: int | None = None

    def __post_init__(self) -> None:
        if self.shard_count < 1:
            raise ValueError(f"shard count must be >= 1: {self.shard_count}")
        if self.queue_chunks < 1:
            raise ValueError(f"queue_chunks must be >= 1: {self.queue_chunks}")
        if self.min_observations < 1:
            raise ValueError(f"min_observations must be >= 1: {self.min_observations}")
        if self.merge_policy not in ("replace", "keep", "error"):
            raise ValueError(f"unknown merge policy: {self.merge_policy!r}")
        if (
            self.checkpoint_every_chunks is not None
            and self.checkpoint_every_chunks < 1
        ):
            raise ValueError(
                f"checkpoint_every_chunks must be >= 1: "
                f"{self.checkpoint_every_chunks}"
            )

    def builder_factory(self) -> StreamingSignatureBuilder:
        """One per-window builder (engine factory hook)."""
        return StreamingSignatureBuilder(
            self.parameter, min_observations=self.min_observations
        )

    def fingerprint(self) -> dict:
        """The checkpoint-compatibility fingerprint."""
        return {
            "parameter": self.parameter.name,
            "shard_count": self.shard_count,
            "vnodes": VNODES,
            "window_s": self.window.window_s,
            "slide_s": self.window.slide_s,
            "min_observations": self.min_observations,
        }


class ReferenceHarvester(WindowAnalyzer):
    """Folds every closed window's gated signatures into a database.

    Later windows replace earlier ones (a live service keeps the
    freshest signature per device); the cross-sensor merge policy is
    applied separately at :meth:`IngestServer.merged_database` time.
    """

    def __init__(self, database: ReferenceDatabase) -> None:
        self.database = database

    def on_window(self, closed: ClosedWindow, matches: list) -> list:
        for device, signature in closed.signatures.items():
            self.database.add(device, signature)
        return []


@dataclass
class SensorStats:
    """One sensor session's counters (a snapshot)."""

    sensor: str
    frames: int
    chunks: int
    completed: bool
    resumed_from_frames: int
    queue_peak: int
    windows_closed: int
    candidates: int
    events: int
    peak_resident_devices: int

    def to_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class ServiceStats:
    """Service-wide counters (a snapshot)."""

    shard_count: int
    sensors: list[SensorStats]
    elapsed_s: float

    @property
    def frames(self) -> int:
        return sum(sensor.frames for sensor in self.sensors)

    @property
    def frames_per_s(self) -> float:
        return self.frames / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def queue_peak(self) -> int:
        return max((sensor.queue_peak for sensor in self.sensors), default=0)

    def to_dict(self) -> dict:
        return {
            "shard_count": self.shard_count,
            "frames": self.frames,
            "frames_per_s": self.frames_per_s,
            "elapsed_s": self.elapsed_s,
            "queue_peak": self.queue_peak,
            "sensors": [sensor.to_dict() for sensor in self.sensors],
        }


class SensorPipeline:
    """One sensor's shard-partitioned ingest state.

    ``K`` detection-window engines (one per ring shard) plus ``K``
    harvest databases.  Deterministic: its outputs depend only on the
    sensor's own chunk sequence, never on what other sensors do
    concurrently.
    """

    def __init__(
        self,
        sensor: str,
        config: ServiceConfig,
        sinks: "Iterable[EventSink] | None" = None,
    ) -> None:
        self.sensor = _check_sensor_id(sensor)
        self.config = config
        self._router = ShardRouter(config.shard_count)
        self.harvests = tuple(
            ReferenceDatabase() for _ in range(config.shard_count)
        )
        shared_sinks = list(sinks) if sinks is not None else []
        self.engines = tuple(
            StreamEngine(
                config.builder_factory,
                window=config.window,
                analyzers=[ReferenceHarvester(self.harvests[shard])],
                sinks=shared_sinks,
            )
            for shard in range(config.shard_count)
        )
        self.frames = 0
        self.chunks = 0
        self.horizon_us: float | None = None
        self.completed = False
        self.resumed_from_frames = 0

    # -- ingest --------------------------------------------------------
    def ingest(self, table: FrameTable) -> None:
        """Consume one (already resume-trimmed) chunk."""
        if len(table) == 0:
            return
        for shard, part in enumerate(self._router.partition(table)):
            if len(part):
                self.engines[shard].process_chunk(part)
        self.frames += len(table)
        self.chunks += 1
        self.horizon_us = table.end_us

    def finish(self) -> None:
        """End of capture: flush every engine's still-open windows."""
        for engine in self.engines:
            engine.flush()
        self.completed = True

    def resume_trimmed(
        self, chunks: Iterable[FrameTable]
    ) -> Iterable[FrameTable]:
        """Trim the already-consumed prefix off a re-sent capture."""
        if self.frames == 0 or self.horizon_us is None:
            return chunks
        return skip_processed_chunks(chunks, self.frames, self.horizon_us)

    # -- aggregate engine counters -------------------------------------
    def stats(
        self, queue_peak: int = 0
    ) -> SensorStats:
        return SensorStats(
            sensor=self.sensor,
            frames=self.frames,
            chunks=self.chunks,
            completed=self.completed,
            resumed_from_frames=self.resumed_from_frames,
            queue_peak=queue_peak,
            windows_closed=sum(e.stats.windows_closed for e in self.engines),
            candidates=sum(e.stats.candidates for e in self.engines),
            events=sum(e.stats.events for e in self.engines),
            peak_resident_devices=sum(
                e.stats.peak_resident_devices for e in self.engines
            ),
        )

    # -- checkpoint / resume -------------------------------------------
    def checkpoint(self, directory: str | Path) -> Path:
        """Snapshot per-shard engine state + harvests, then the manifest.

        Each snapshot goes into a directory no earlier snapshot used;
        the manifest naming it is replaced atomically only after every
        shard file is written, and only then are the older snapshot
        directories deleted.  A crash at any point therefore leaves the
        previous manifest and the whole snapshot it names in charge.
        """
        from repro.persistence.store import save_database

        base = Path(directory) / self.sensor
        base.mkdir(parents=True, exist_ok=True)
        older = _snapshot_dirs(base)
        snapshot = base / f"{_SNAPSHOT_PREFIX}{max(older, default=0) + 1}"
        snapshot.mkdir()
        for shard, engine in enumerate(self.engines):
            engine.checkpoint(snapshot / f"shard-{shard}.ckpt")
        for shard, harvest in enumerate(self.harvests):
            save_database(
                harvest,
                snapshot / f"harvest-{shard}",
                parameter=self.config.parameter.name,
            )
        manifest = {
            "format": MANIFEST_FORMAT,
            "version": MANIFEST_VERSION,
            "config": self.config.fingerprint(),
            "snapshot": snapshot.name,
            "frames": self.frames,
            "chunks": self.chunks,
            "horizon_us": self.horizon_us,
            "completed": self.completed,
        }
        target = base / _MANIFEST_FILE
        scratch = target.with_name(target.name + ".tmp")
        scratch.write_text(json.dumps(manifest, sort_keys=True) + "\n")
        os.replace(scratch, target)
        for path in older.values():
            shutil.rmtree(path)
        return base

    @classmethod
    def has_checkpoint(cls, directory: str | Path, sensor: str) -> bool:
        """Is there a resumable snapshot for this sensor?"""
        return (Path(directory) / sensor / _MANIFEST_FILE).exists()

    @classmethod
    def restore(
        cls,
        directory: str | Path,
        sensor: str,
        config: ServiceConfig,
        sinks: "Iterable[EventSink] | None" = None,
    ) -> "SensorPipeline":
        """Rebuild a pipeline from its :meth:`checkpoint` snapshot.

        The whole manifest is checked before any engine is restored
        (:func:`_checked_manifest`).
        """
        from repro.persistence.store import load_database

        base = Path(directory) / sensor
        manifest = _checked_manifest(base, sensor, config)
        snapshot = base / manifest["snapshot"]
        pipeline = cls(sensor, config, sinks=sinks)
        for shard, engine in enumerate(pipeline.engines):
            engine.restore(snapshot / f"shard-{shard}.ckpt")
        for shard, harvest in enumerate(pipeline.harvests):
            harvest.merge(
                load_database(snapshot / f"harvest-{shard}").database,
                on_conflict="error",
            )
        pipeline.frames = manifest["frames"]
        pipeline.chunks = manifest["chunks"]
        horizon = manifest.get("horizon_us")
        pipeline.horizon_us = None if horizon is None else float(horizon)
        pipeline.completed = manifest["completed"]
        pipeline.resumed_from_frames = pipeline.frames
        return pipeline


def _checked_manifest(base: Path, sensor: str, config: ServiceConfig) -> dict:
    """The sensor's manifest, refused with ``ValueError`` (naming the
    sensor and the field) unless its writer could have written it: a
    version other than :data:`MANIFEST_VERSION` (an older checkpoint
    must be re-ingested), another config fingerprint, a snapshot that
    is not a ``snapshot-<n>`` directory directly under the sensor's
    directory, counts that are not non-negative integers, a horizon
    that is not a finite number or is not set exactly when frames were
    consumed, or a ``completed`` that is not a bool.  A missing field
    reads as ``null``, which only a horizon before the first frame
    may be."""
    manifest = json.loads((base / _MANIFEST_FILE).read_text())
    if not isinstance(manifest, dict) or manifest.get("format") != MANIFEST_FORMAT:
        raise ValueError(f"not a sensor checkpoint: {base}")
    version = manifest.get("version")
    if type(version) is not int or version != MANIFEST_VERSION:
        raise ValueError(
            f"sensor checkpoint {base} has version {version!r}, this build "
            f"reads version {MANIFEST_VERSION} only: delete it and re-ingest "
            "the sensor's capture"
        )
    fingerprint = config.fingerprint()
    if manifest.get("config") != fingerprint:
        raise ValueError(
            f"sensor checkpoint config mismatch for {sensor!r}: "
            f"snapshot has {manifest.get('config')}, service has {fingerprint}"
        )
    where = f"sensor {sensor!r} manifest"
    snapshot = manifest.get("snapshot")
    if not (
        isinstance(snapshot, str)
        and _snapshot_number(snapshot) is not None
        and (base / snapshot).is_dir()
    ):
        raise ValueError(
            f"{where} snapshot {snapshot!r} is not a snapshot-<n> directory "
            f"in {base}"
        )
    frames = checked_count(manifest.get("frames"), f"{where} frames")
    checked_count(manifest.get("chunks"), f"{where} chunks")
    horizon = checked_time(manifest.get("horizon_us"), f"{where} horizon_us")
    if (horizon is None) != (frames == 0):
        raise ValueError(
            f"{where} horizon_us is {horizon!r} with {frames} frames: it is "
            "set exactly when frames were consumed"
        )
    if not isinstance(manifest.get("completed"), bool):
        raise ValueError(
            f"{where} completed is not a bool: {manifest.get('completed')!r}"
        )
    return manifest


def _snapshot_number(name: str) -> int | None:
    """``n`` of a ``snapshot-<n>`` name, ``None`` for any other name."""
    number = name[len(_SNAPSHOT_PREFIX) :]
    if name.startswith(_SNAPSHOT_PREFIX) and number.isascii() and number.isdigit():
        return int(number)
    return None


def _snapshot_dirs(base: Path) -> dict[int, Path]:
    """A sensor's snapshot directories, keyed by their number."""
    found = {}
    for path in base.iterdir():
        number = _snapshot_number(path.name)
        if number is not None:
            found[number] = path
    return found


class _SensorState:
    """Server-side bookkeeping for one sensor."""

    __slots__ = (
        "pipeline", "queue", "worker", "attached", "queue_peak", "outcome"
    )

    def __init__(self, pipeline: SensorPipeline, queue_chunks: int) -> None:
        self.pipeline = pipeline
        self.queue: queue.Queue = queue.Queue(maxsize=queue_chunks)
        self.worker: threading.Thread | None = None
        self.attached = False
        self.queue_peak = 0
        #: What the current connection's ending means: ``_END`` after a
        #: clean END record, ``_PAUSE`` on disconnect/corruption.
        self.outcome: object = _PAUSE


class IngestServer:
    """Multiplexes N concurrent sensor sessions into shard engines.

    Use as a context manager, or call :meth:`close` when done::

        config = ServiceConfig(parameter=InterArrivalTime(), shard_count=4)
        with IngestServer(config, checkpoint_dir="ckpts") as server:
            port = server.listen()
            ... sensors connect and stream ...
            server.wait_for_sessions(3)
            server.publish("refs.store")
    """

    def __init__(
        self,
        config: ServiceConfig,
        checkpoint_dir: str | Path | None = None,
        sink_factory: "Callable[[str], EventSink] | None" = None,
        attach_wait_s: float = 10.0,
    ) -> None:
        """``sink_factory(sensor)`` (optional) builds one event sink per
        sensor, subscribed to all of that sensor's shard engines.
        ``attach_wait_s`` bounds how long a reconnecting sensor waits
        for its previous (crashed) session to finish draining before
        the new connection is rejected as a duplicate."""
        self.config = config
        self.checkpoint_dir = (
            None if checkpoint_dir is None else Path(checkpoint_dir)
        )
        self.attach_wait_s = attach_wait_s
        self._sink_factory = sink_factory
        self._sensors: dict[str, _SensorState] = {}
        self._lock = threading.Lock()
        self._completions = threading.Condition(self._lock)
        self._completed = 0
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._closing = threading.Event()
        self._first_ingest: float | None = None
        self._last_activity: float | None = None

    # -- lifecycle -----------------------------------------------------
    def listen(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Bind, start accepting sessions, return the bound port."""
        if self._listener is not None:
            raise RuntimeError("server is already listening")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen()
        listener.settimeout(0.2)
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="ingest-accept", daemon=True
        )
        self._accept_thread.start()
        return listener.getsockname()[1]

    @property
    def port(self) -> int:
        """The bound port (after :meth:`listen`)."""
        if self._listener is None:
            raise RuntimeError("server is not listening")
        return self._listener.getsockname()[1]

    def close(self) -> None:
        """Stop accepting, drain queued chunks, checkpoint, shut down.

        Already-queued chunks are consumed before workers exit, so a
        graceful shutdown loses nothing that reached the server.
        """
        self._closing.set()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
            self._accept_thread = None
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        with self._lock:
            states = list(self._sensors.values())
        for state in states:
            worker = state.worker
            if worker is not None and worker.is_alive():
                state.queue.put(_PAUSE)
        for state in states:
            worker = state.worker
            if worker is not None:
                worker.join(timeout=30.0)

    def __enter__(self) -> "IngestServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- session plumbing ----------------------------------------------
    def _accept_loop(self) -> None:
        while not self._closing.is_set():
            try:
                conn, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            threading.Thread(
                target=self._handle_connection,
                args=(conn,),
                name="ingest-session",
                daemon=True,
            ).start()

    def _handle_connection(self, conn: socket.socket) -> None:
        state: _SensorState | None = None
        try:
            with conn, conn.makefile("rb") as reader:
                records = iter_records(reader)
                try:
                    first = next(records)
                except StopIteration:
                    return
                if first[0] != RECORD_HELLO:
                    raise WireError("session must open with a HELLO record")
                hello = decode_json(first[1])
                sensor = _check_sensor_id(str(hello.get("sensor", "")))
                state = self._attach(sensor)
                trim = state.pipeline.resume_trimmed(
                    self._decoded_chunks(records, state)
                )
                for table in trim:
                    state.queue.put(table)
                    depth = state.queue.qsize()
                    if depth > state.queue_peak:
                        state.queue_peak = depth
        except (WireError, ValueError, OSError, RuntimeError):
            # A malformed or dropped session pauses the sensor; its
            # state stays resumable.  (A real deployment would log.)
            pass
        finally:
            if state is not None:
                state.queue.put(state.outcome)

    def _decoded_chunks(self, records, state: _SensorState):
        """CHUNK records as tables; remembers whether END was seen."""
        state.outcome = _PAUSE
        for record_type, payload in records:
            if record_type == RECORD_CHUNK:
                yield decode_chunk(payload)
            elif record_type == RECORD_END:
                state.outcome = _END
                return
            else:
                raise WireError(
                    f"unexpected record type {record_type} mid-session"
                )

    def _attach(self, sensor: str) -> _SensorState:
        deadline = time.monotonic() + self.attach_wait_s
        with self._completions:
            if self._closing.is_set():
                raise RuntimeError("server is shutting down")
            state = self._sensors.get(sensor)
            if state is None:
                sinks = None
                if self._sink_factory is not None:
                    sinks = [self._sink_factory(sensor)]
                if (
                    self.checkpoint_dir is not None
                    and SensorPipeline.has_checkpoint(self.checkpoint_dir, sensor)
                ):
                    pipeline = SensorPipeline.restore(
                        self.checkpoint_dir, sensor, self.config, sinks=sinks
                    )
                else:
                    pipeline = SensorPipeline(sensor, self.config, sinks=sinks)
                state = _SensorState(pipeline, self.config.queue_chunks)
                self._sensors[sensor] = state
            # A crashed sensor that reconnects immediately races its
            # previous session's worker, which may still be draining
            # queued chunks; give the detach a bounded head start
            # before treating the reconnect as a duplicate.
            while state.attached:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise RuntimeError(
                        f"sensor {sensor!r} is already connected"
                    )
                self._completions.wait(timeout=remaining)
                if self._closing.is_set():
                    raise RuntimeError("server is shutting down")
            if state.pipeline.completed:
                raise RuntimeError(f"sensor {sensor!r} already completed")
            state.attached = True
            state.outcome = _PAUSE
            if state.worker is None or not state.worker.is_alive():
                state.worker = threading.Thread(
                    target=self._drain,
                    args=(state,),
                    name=f"ingest-{sensor}",
                    daemon=True,
                )
                state.worker.start()
            return state

    def _drain(self, state: _SensorState) -> None:
        pipeline = state.pipeline
        every = self.config.checkpoint_every_chunks
        while True:
            item = state.queue.get()
            if item is _PAUSE or item is _END:
                if item is _END:
                    pipeline.finish()
                if self.checkpoint_dir is not None:
                    pipeline.checkpoint(self.checkpoint_dir)
                with self._lock:
                    state.attached = False
                    self._last_activity = time.monotonic()
                    if item is _END:
                        self._completed += 1
                    # Wake both wait_for_sessions() and reconnecting
                    # sensors blocked in _attach / wait_for_detach.
                    self._completions.notify_all()
                return
            now = time.monotonic()
            if self._first_ingest is None:
                self._first_ingest = now
            pipeline.ingest(item)
            self._last_activity = time.monotonic()
            if (
                every is not None
                and self.checkpoint_dir is not None
                and pipeline.chunks % every == 0
            ):
                pipeline.checkpoint(self.checkpoint_dir)

    # -- observers -----------------------------------------------------
    def wait_for_sessions(self, count: int, timeout: float | None = None) -> bool:
        """Block until ``count`` sessions have completed (END + flush)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._completions:
            while self._completed < count:
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return False
                self._completions.wait(timeout=remaining)
            return True

    def wait_for_detach(self, sensor: str, timeout: float | None = None) -> bool:
        """Block until ``sensor`` has connected at least once and has no
        live session — its worker has drained the queue and (if
        configured) checkpointed.  A dropped client returns before the
        server has even registered the session, so waiting for a known
        *and* detached sensor is what makes a crash-then-reconnect
        drill deterministic."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._completions:
            while True:
                state = self._sensors.get(sensor)
                if state is not None and not state.attached:
                    return True
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return False
                self._completions.wait(timeout=remaining)

    @property
    def completed_sessions(self) -> int:
        with self._lock:
            return self._completed

    def stats(self) -> ServiceStats:
        """A snapshot of the per-sensor and aggregate counters."""
        with self._lock:
            sensors = [
                state.pipeline.stats(queue_peak=state.queue_peak)
                for _, state in sorted(self._sensors.items())
            ]
            if self._first_ingest is None or self._last_activity is None:
                elapsed = 0.0
            else:
                elapsed = self._last_activity - self._first_ingest
        return ServiceStats(
            shard_count=self.config.shard_count,
            sensors=sensors,
            elapsed_s=elapsed,
        )

    # -- the shared reference database ---------------------------------
    def shard_databases(self) -> list[ReferenceDatabase]:
        """Per-shard merges of every sensor's harvest (sorted sensor
        order, the configured conflict policy)."""
        with self._lock:
            pipelines = [
                state.pipeline for _, state in sorted(self._sensors.items())
            ]
            return merge_harvests(
                pipelines, self.config.shard_count, self.config.merge_policy
            )

    def merged_database(self) -> ReferenceDatabase:
        """The one shared reference database across all sensors/shards.

        Deterministic for a given set of sensor streams: per shard,
        sensors merge in sorted-id order under the configured policy;
        shards are disjoint by construction (one ring), so folding them
        together never conflicts.  Call it any time — a snapshot — but
        for a stable result, after :meth:`wait_for_sessions` or
        :meth:`close`.
        """
        combined = ReferenceDatabase()
        for shard_db in self.shard_databases():
            combined.merge(shard_db, on_conflict="error")
        return combined

    def publish(self, path: str | Path) -> Path:
        """Persist the merged database as a versioned store."""
        from repro.persistence.store import save_database

        return save_database(
            self.merged_database(), path, parameter=self.config.parameter.name
        )


def merge_harvests(
    pipelines: Iterable[SensorPipeline], shard_count: int, policy: str
) -> list[ReferenceDatabase]:
    """Merge per-sensor harvests into per-shard databases.

    Shared by the live server and the sequential reference
    (:func:`run_inline`), so both sides apply byte-identical merge
    semantics; the order is the caller's pipeline order.
    """
    shard_dbs = [ReferenceDatabase() for _ in range(shard_count)]
    for pipeline in pipelines:
        for shard, harvest in enumerate(pipeline.harvests):
            merge_databases(shard_dbs[shard], harvest, on_conflict=policy)
    return shard_dbs


@dataclass
class InlineResult:
    """What :func:`run_inline` produced."""

    database: ReferenceDatabase
    shard_databases: list[ReferenceDatabase]
    pipelines: dict[str, SensorPipeline]

    def stats(self) -> list[SensorStats]:
        return [
            pipeline.stats() for _, pipeline in sorted(self.pipelines.items())
        ]


def run_inline(
    sensor_chunks: dict[str, Iterable[FrameTable]],
    config: ServiceConfig,
    sink_factory: "Callable[[str], EventSink] | None" = None,
) -> InlineResult:
    """The sequential single-engine-per-shard reference.

    Runs each sensor's chunk stream through one
    :class:`SensorPipeline` after another — no threads, no sockets, no
    wire encoding — and merges exactly like the live server.  The
    service's concurrent result must equal this bin for bin (the
    equivalence the service tests pin down), and the soak benchmark
    uses it as the inline baseline.
    """
    pipelines: dict[str, SensorPipeline] = {}
    for sensor, chunks in sensor_chunks.items():
        sinks = None if sink_factory is None else [sink_factory(sensor)]
        pipeline = SensorPipeline(sensor, config, sinks=sinks)
        for table in chunks:
            pipeline.ingest(table)
        pipeline.finish()
        pipelines[sensor] = pipeline
    ordered = [pipelines[sensor] for sensor in sorted(pipelines)]
    shard_dbs = merge_harvests(ordered, config.shard_count, config.merge_policy)
    combined = ReferenceDatabase()
    for shard_db in shard_dbs:
        combined.merge(shard_db, on_conflict="error")
    return InlineResult(
        database=combined, shard_databases=shard_dbs, pipelines=pipelines
    )
