"""Command-line tool, the analogue of the paper's pcap-based tool.

Section V-C: "We have developed a tool in Python based on the pcap
library.  It analyses standard pcap files [...] and extracts the
different network parameters [...] also implements the fingerprinting
methodology".  This CLI does the same against pcaps (real or
simulator-produced) whose frames carry Radiotap or Prism capture
headers, the two the paper reads metadata from (Section III); every
command that reads a pcap accepts either:

* ``repro-80211 learn capture.pcap --db refs.db`` — build a
  reference database from a training capture and save it as a store
  directory (:mod:`repro.persistence.store`);
* ``repro-80211 match capture.pcap --db refs.db`` — match candidate
  windows against the database;
* ``repro-80211 evaluate capture.pcap --training-s 600`` — run the
  full similarity/identification evaluation on one capture;
* ``repro-80211 evaluate --out BENCH_experiments.json`` — no pcap:
  run the cross-scenario evaluation matrix over the scenario library
  ((scenario × parameter × measure) cells, DESIGN.md §7), with
  ``--scenario``/``--parameter``/``--measure`` subsetting and
  ``--resume`` to skip cells an earlier partial run already wrote;
* ``repro-80211 scenarios list`` — the bundled scenario library;
* ``repro-80211 simulate office1 --out office.pcap`` — produce a
  synthetic dataset pcap (``office1``, ``office2``, ``conference1``
  or ``conference2``);
* ``repro-80211 histogram capture.pcap --device <mac>`` — render a
  device's inter-arrival histogram (Figure 2 style);
* ``repro-80211 stream capture.pcap --db refs.db`` — run the online
  engine: the pcap is consumed in columnar chunks of ``--chunk-frames``
  frames in bounded memory, windows are matched live and alerts stream
  out as they happen; with ``--checkpoint``/``--resume`` the engine
  state survives restarts (DESIGN.md §5);
* ``repro-80211 db load|merge|info`` — inspect and merge the
  reference-database stores (versioned ``.npz`` + JSONL directories)
  that ``learn`` and ``serve --db-out`` write and every ``--db`` reads;
* ``repro-80211 serve`` / ``repro-80211 sensor capture.pcap --connect
  HOST:PORT --sensor-id s0`` — the multi-sensor ingest service
  (DESIGN.md §9): N concurrent capture sessions stream columnar chunks
  over the length-prefixed wire format into shard-partitioned engines
  and one shared merged reference database, with per-sensor
  checkpoint/resume and bounded-queue backpressure.

``stream`` and ``serve`` shut down gracefully on SIGINT/SIGTERM —
final checkpoint written, sinks flushed, then exit — and both accept
``--stats-json PATH`` to dump their final statistics machine-readably.
An out-of-range number (a negative or, where it must be positive,
zero count; a duration or scale that is not a finite positive number;
a port outside 0..65535) is a usage error, exit 2.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import signal
import sys
import time
from pathlib import Path

from repro.analysis.plots import render_histogram, render_table
from repro.core.database import ReferenceDatabase
from repro.core.detection import DetectionConfig, extract_window_candidates
from repro.core.parameters import ALL_PARAMETERS, parameter_by_name
from repro.core.pipeline import evaluate_trace
from repro.core.signature import SignatureBuilder
from repro.dot11.mac import MacAddress
from repro.streaming.sources import DEFAULT_CHUNK_FRAMES
from repro.traces.trace import Trace

#: The largest TCP port number.
MAX_PORT = 65535


def _load_store(path: str) -> tuple[ReferenceDatabase, str]:
    """A ``--db`` store's database and the network parameter it was
    learnt from."""
    from repro.persistence import load_database

    if Path(path).is_file():
        raise SystemExit(
            f"{path}: a file, not a database store directory (legacy JSON "
            "databases are no longer read); re-learn it with `repro-80211 learn`"
        )
    loaded = load_database(path)
    if loaded.parameter is None:
        raise SystemExit(
            f"{path}: store does not record its network parameter; "
            "re-learn it with `repro-80211 learn`"
        )
    return loaded.database, loaded.parameter


def _cmd_learn(args: argparse.Namespace) -> int:
    from repro.persistence import save_database

    trace = Trace.from_pcap(args.pcap)
    parameter = parameter_by_name(args.parameter)
    builder = SignatureBuilder(parameter, min_observations=args.min_observations)
    database = ReferenceDatabase.from_training_table(builder, trace.table())
    save_database(database, args.db, parameter=parameter.name)
    print(f"learnt {len(database)} reference devices -> {args.db}")
    return 0


def _cmd_match(args: argparse.Namespace) -> int:
    database, parameter_name = _load_store(args.db)
    builder = SignatureBuilder(
        parameter_by_name(parameter_name), min_observations=args.min_observations
    )
    config = DetectionConfig(
        window_s=args.window_s, min_observations=args.min_observations
    )
    candidates = extract_window_candidates(
        Trace.from_pcap(args.pcap), builder, database, config
    )
    rows = []
    for candidate in candidates:
        best, score = candidate.best
        if best is None:
            continue
        rows.append(
            (
                candidate.window_index,
                str(candidate.device),
                str(best),
                f"{score:.3f}",
                "MATCH" if best == candidate.device else "MISMATCH",
            )
        )
    print(
        render_table(
            ["window", "claimed", "best match", "similarity", "verdict"], rows
        )
    )
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    if args.pcap is None:
        return _cmd_evaluate_matrix(args)
    if args.scenario:
        print(
            "evaluate: give either a pcap or --scenario, not both",
            file=sys.stderr,
        )
        return 2
    if args.training_s is None:
        print("evaluate: --training-s is required with a pcap", file=sys.stderr)
        return 2
    trace = Trace.from_pcap(args.pcap)
    config = DetectionConfig(
        window_s=args.window_s, min_observations=args.min_observations
    )
    rows = []
    for parameter in ALL_PARAMETERS:
        result = evaluate_trace(trace, parameter, args.training_s, config)
        rows.append(
            (
                parameter.label,
                f"{result.auc:.3f}",
                f"{result.identification_at(0.01):.3f}",
                f"{result.identification_at(0.1):.3f}",
            )
        )
    print(
        render_table(
            ["parameter", "AUC", "ident@FPR=0.01", "ident@FPR=0.1"],
            rows,
            title=f"{args.pcap}: {len(trace)} frames",
        )
    )
    return 0


def _cmd_evaluate_matrix(args: argparse.Namespace) -> int:
    from repro.evaluation import (
        DEFAULT_MEASURES,
        EvaluationMatrix,
        SimulationCache,
        run_matrix,
    )
    from repro.scenarios import scenario_names

    available = scenario_names()
    scenarios = args.scenario or list(available)
    for name in scenarios:
        if name not in available:
            print(
                f"unknown scenario {name!r}; available: {', '.join(available)}",
                file=sys.stderr,
            )
            return 2
    measures = args.measure or list(DEFAULT_MEASURES)

    resume = None
    if args.resume:
        out_path = Path(args.out) if args.out else None
        if out_path is None or not out_path.exists():
            print(
                "--resume: nothing to resume "
                f"({'no --out given' if out_path is None else f'{out_path} missing'}); "
                "running the full grid",
                file=sys.stderr,
            )
        else:
            resume = EvaluationMatrix.load(out_path)
            print(f"resuming: {len(resume)} cells already in {out_path}")

    def progress(key, cell, was_resumed):
        tag = "cached" if was_resumed else f"auc={cell.auc:.3f}"
        print(f"  {key.scenario} × {key.parameter} × {key.measure}: {tag}")

    matrix = run_matrix(
        scenarios=scenarios,
        parameters=args.parameter or None,
        measures=measures,
        cache=SimulationCache(),
        scale=args.scale,
        resume=resume,
        progress=progress if args.verbose else None,
    )
    rows = [
        (
            cell.scenario,
            cell.parameter,
            cell.measure,
            f"{cell.auc:.3f}",
            f"{cell.identification_at_0_01:.3f}",
            f"{cell.identification_at_0_1:.3f}",
            str(cell.reference_devices),
        )
        for cell in matrix.cells
    ]
    print(
        render_table(
            [
                "scenario",
                "parameter",
                "measure",
                "AUC",
                "ident@0.01",
                "ident@0.1",
                "refs",
            ],
            rows,
            title=(
                f"evaluation matrix: {len(matrix.scenarios())} scenarios × "
                f"{len(matrix.parameters())} parameters × "
                f"{len(matrix.measures())} measures = {len(matrix)} cells"
            ),
        )
    )
    if args.out:
        path = matrix.save(args.out)
        print(f"matrix -> {path}")
    return 0


def _cmd_scenarios_list(args: argparse.Namespace) -> int:
    from repro.scenarios import build_scenario, scenario_names

    rows = []
    for name in scenario_names():
        meta = build_scenario(name).metadata
        rows.append(
            (
                name,
                str(meta.station_count),
                f"{meta.duration_s:.0f}",
                str(meta.ap_count),
                "yes" if meta.encrypted else "no",
                f"{meta.window_s:.0f}",
                ",".join(meta.traffic_mix),
            )
        )
    print(
        render_table(
            ["scenario", "stations", "dur s", "APs", "enc", "win s", "traffic"],
            rows,
            title="scenario library",
        )
    )
    return 0


class _ShutdownRequest:
    """Records the first SIGINT/SIGTERM so loops can exit gracefully."""

    def __init__(self) -> None:
        self.signum: int | None = None

    @property
    def triggered(self) -> bool:
        return self.signum is not None

    @property
    def name(self) -> str:
        return signal.Signals(self.signum).name if self.triggered else ""

    def __call__(self, signum: int, frame: object) -> None:
        self.signum = signum


@contextlib.contextmanager
def _graceful_shutdown():
    """Catch SIGINT/SIGTERM into a flag for the duration of the block.

    The long-running commands (``stream``, ``serve``) check the flag
    between work items and wind down cleanly — final checkpoint, sinks
    flushed — instead of dying mid-write.  Outside the main thread
    (some test harnesses) handlers cannot be installed; the flag simply
    never triggers there.
    """
    request = _ShutdownRequest()
    previous: dict[int, object] = {}
    try:
        for signum in (signal.SIGINT, signal.SIGTERM):
            previous[signum] = signal.signal(signum, request)
    except ValueError:
        pass
    try:
        yield request
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)


def _write_stats_json(path: str, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, sort_keys=True) + "\n")
    print(f"stats -> {path}")


def _stream_stats_payload(stats, interrupted: bool) -> dict:
    """Machine-readable ``StreamStats`` for ``--stats-json``."""
    return {
        "frames": stats.frames,
        "windows_closed": stats.windows_closed,
        "candidates": stats.candidates,
        "events": stats.events,
        "events_by_type": dict(sorted(stats.events_by_type.items())),
        "peak_resident_devices": stats.peak_resident_devices,
        "duration_s": stats.duration_s,
        "first_timestamp_us": stats.first_timestamp_us,
        "last_timestamp_us": stats.last_timestamp_us,
        "interrupted": interrupted,
    }


def _cmd_stream(args: argparse.Namespace) -> int:
    from repro.streaming import (
        DeviceMatched,
        JsonLinesSink,
        LiveTracker,
        OnlineSpoofGuard,
        PseudonymLinked,
        SpoofAlert,
        StreamEngine,
        StreamEvent,
        StreamingSignatureBuilder,
        WindowClosed,
        WindowConfig,
        pcap_chunk_source,
        skip_processed_chunks,
    )

    database, parameter_name = _load_store(args.db)
    parameter = parameter_by_name(parameter_name)

    # The guards read the engine's rows: they need the store (the
    # allow-list is the learnt database), not a signature builder.
    analyzers = []
    if args.spoof_guard:
        from repro.applications.spoof_detector import SpoofDetector

        analyzers.append(OnlineSpoofGuard(SpoofDetector(parameter, database=database)))
    if args.track:
        from repro.applications.tracker import DeviceTracker

        analyzers.append(LiveTracker(DeviceTracker(parameter, database=database)))

    def console_sink(event: StreamEvent) -> None:
        if isinstance(event, WindowClosed):
            if args.verbose:
                print(
                    f"window {event.window_index}: {event.frame_count} frames, "
                    f"{event.candidate_count} candidates"
                )
        elif isinstance(event, DeviceMatched):
            if args.verbose:
                print(
                    f"window {event.window_index}: {event.device} -> "
                    f"{event.best_device} ({event.similarity:.3f})"
                )
        elif isinstance(event, SpoofAlert):
            print(
                f"ALERT window {event.window_index}: {event.device} "
                f"{event.verdict} (self={event.self_similarity:.3f})"
            )
        elif isinstance(event, PseudonymLinked):
            print(
                f"LINK window {event.window_index}: {event.pseudonym} -> "
                f"{event.linked_device} ({event.similarity:.3f})"
            )

    engine = StreamEngine(
        lambda: StreamingSignatureBuilder(
            parameter, min_observations=args.min_observations
        ),
        database=database,
        window=WindowConfig(window_s=args.window_s, slide_s=args.slide_s),
        analyzers=analyzers,
        sinks=[console_sink],
    )
    events_sink = None
    if args.events:
        events_sink = JsonLinesSink.open(args.events)
        engine.subscribe(events_sink)
    already_processed = 0
    resume_horizon_us: float | None = None
    if args.resume:
        engine.restore(args.resume)
        already_processed = engine.stats.frames
        resume_horizon_us = engine.stats.last_timestamp_us
        print(f"resumed from {args.resume} at {already_processed} frames")
    interrupted: int | None = None
    try:
        source = pcap_chunk_source(
            args.pcap, chunk_frames=args.chunk_frames, skip_bad_fcs=args.skip_bad_fcs
        )
        if already_processed and resume_horizon_us is not None:
            # Crash recovery on the SAME capture: the first
            # `already_processed` frames (all at or before the snapshot's
            # capture clock) were consumed before the checkpoint — feed
            # them again and they would double-accumulate into the
            # restored open windows.  A continuation capture starts
            # past the horizon, so nothing is skipped there.
            source = skip_processed_chunks(
                source, already_processed, resume_horizon_us
            )
        # One explicit loop, so SIGINT/SIGTERM can stop cleanly between
        # chunks: final checkpoint taken, event sinks flushed, windows
        # left OPEN (a flushed engine cannot resume, so an interrupted
        # run must not flush).
        last_checkpoint_us: float | None = None
        with _graceful_shutdown() as shutdown:
            for chunk in source:
                engine.process_chunk(chunk)
                now_us = chunk.end_us
                if args.checkpoint and args.checkpoint_every_s is not None:
                    if last_checkpoint_us is None:
                        last_checkpoint_us = now_us
                    elif now_us - last_checkpoint_us >= args.checkpoint_every_s * 1e6:
                        engine.checkpoint(args.checkpoint)
                        last_checkpoint_us = now_us
                if shutdown.triggered:
                    break
            if args.checkpoint:
                # The final snapshot BEFORE flushing — a flushed engine
                # has closed its windows early and cannot continue the
                # capture, so the checkpoint must precede it.
                engine.checkpoint(args.checkpoint)
                print(f"checkpoint -> {args.checkpoint}")
            if shutdown.triggered:
                interrupted = shutdown.signum
                print(
                    f"interrupted ({shutdown.name}): stopped cleanly after "
                    f"{engine.stats.frames} frames"
                    + (", state checkpointed" if args.checkpoint else "")
                )
            else:
                engine.flush()
        stats = engine.stats
    finally:
        if events_sink is not None:
            events_sink.close()
    by_type = ", ".join(
        f"{name}={count}" for name, count in sorted(stats.events_by_type.items())
    )
    print(
        f"streamed {stats.frames} frames ({stats.duration_s:.1f}s of capture) "
        f"in {stats.windows_closed} windows: {stats.candidates} candidates, "
        f"peak {stats.peak_resident_devices} resident devices"
    )
    if by_type:
        print(f"events: {by_type}")
    if args.stats_json:
        _write_stats_json(
            args.stats_json,
            _stream_stats_payload(stats, interrupted=interrupted is not None),
        )
    return 0 if interrupted is None else 128 + interrupted


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import IngestServer, ServiceConfig
    from repro.streaming import WindowConfig

    config = ServiceConfig(
        parameter=parameter_by_name(args.parameter),
        shard_count=args.shards,
        window=WindowConfig(window_s=args.window_s, slide_s=args.slide_s),
        min_observations=args.min_observations,
        queue_chunks=args.queue_chunks,
        merge_policy=args.merge_policy,
        checkpoint_every_chunks=args.checkpoint_every_chunks,
    )
    server = IngestServer(config, checkpoint_dir=args.checkpoint_dir)
    interrupted: int | None = None
    try:
        port = server.listen(args.host, args.port)
        print(
            f"listening on {args.host}:{port} "
            f"({config.shard_count} shards, parameter={config.parameter.name})",
            flush=True,
        )
        with _graceful_shutdown() as shutdown:
            while not shutdown.triggered:
                if args.sessions is not None:
                    if server.wait_for_sessions(args.sessions, timeout=0.2):
                        break
                else:
                    time.sleep(0.2)
            if shutdown.triggered:
                interrupted = shutdown.signum
                print(
                    f"interrupted ({shutdown.name}): draining queues, "
                    "checkpointing sensors"
                )
    finally:
        # Graceful either way: consume what already reached the queues,
        # checkpoint every sensor, then stop the threads.
        server.close()
    stats = server.stats()
    print(
        f"served {len(stats.sensors)} sensors: {stats.frames} frames, "
        f"{stats.frames_per_s:.0f} frames/s, peak queue depth "
        f"{stats.queue_peak}"
    )
    for sensor in stats.sensors:
        state = "completed" if sensor.completed else "paused"
        print(
            f"  {sensor.sensor}: {sensor.frames} frames in {sensor.chunks} "
            f"chunks, {sensor.windows_closed} windows, {state}"
        )
    if args.db_out:
        store = server.publish(args.db_out)
        print(
            f"published {len(server.merged_database().devices)} devices "
            f"-> {store}"
        )
    if args.stats_json:
        payload = stats.to_dict()
        payload["interrupted"] = interrupted is not None
        _write_stats_json(args.stats_json, payload)
    return 0 if interrupted is None else 128 + interrupted


def _cmd_sensor(args: argparse.Namespace) -> int:
    from repro.service import SensorSession
    from repro.streaming import pcap_chunk_source

    host, _, port_text = args.connect.rpartition(":")
    if not (port_text.isdecimal() and 0 < int(port_text) <= MAX_PORT):
        print(
            f"--connect must be HOST:PORT with a port in 1..{MAX_PORT}, "
            f"got {args.connect!r}",
            file=sys.stderr,
        )
        return 2
    chunks = pcap_chunk_source(
        args.pcap,
        chunk_frames=args.chunk_frames,
        skip_bad_fcs=args.skip_bad_fcs,
    )
    session = SensorSession(args.sensor_id, chunks)
    report = session.connect(
        host or "127.0.0.1",
        int(port_text),
        abort_after_chunks=args.abort_after_chunks,
    )
    suffix = "" if report.ended else " (aborted before END)"
    print(
        f"{report.sensor}: sent {report.frames} frames in "
        f"{report.chunks} chunks{suffix}"
    )
    return 0 if report.ended else 1


def _cmd_db_load(args: argparse.Namespace) -> int:
    from repro.persistence import load_database

    loaded = load_database(args.store)
    database = loaded.database
    rows = [
        (
            str(device),
            str(len(signature.histograms)),
            str(signature.total_observations),
        )
        for device, signature in database.items()
    ]
    print(
        render_table(
            ["device", "frame types", "observations"],
            rows,
            title=(
                f"{args.store}: {len(database)} devices, "
                f"parameter={loaded.parameter} (format v{loaded.version})"
            ),
        )
    )
    return 0


def _cmd_db_merge(args: argparse.Namespace) -> int:
    from repro.persistence import load_database, save_database

    merged = ReferenceDatabase()
    parameter: str | None = None
    for store in args.stores:
        loaded = load_database(store)
        if parameter is None:
            parameter = loaded.parameter
        elif loaded.parameter is not None and loaded.parameter != parameter:
            print(
                f"cannot merge: {store} was built from parameter "
                f"{loaded.parameter!r}, earlier stores from {parameter!r}",
                file=sys.stderr,
            )
            return 1
        report = merged.merge(loaded.database, on_conflict=args.on_conflict)
        print(
            f"{store}: +{len(report.added)} added, "
            f"{len(report.replaced)} replaced, {len(report.skipped)} kept"
        )
    save_database(merged, args.out, parameter=parameter)
    print(f"merged {len(merged)} devices -> {args.out}")
    return 0


def _cmd_db_info(args: argparse.Namespace) -> int:
    from repro.persistence import database_info

    info = database_info(args.store)
    print(f"{info['path']}: {info['format']} v{info['version']}")
    print(f"  parameter: {info['parameter']}")
    print(f"  devices: {info['device_count']}")
    bins = info.get("bin_counts", {})
    for ftype in info.get("frame_types", []):
        print(f"  frame type {ftype!r}: {bins.get(ftype, '?')} bins")
    print(f"  bytes: {info['total_bytes']}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.traces.datasets import build_dataset, _spec

    spec = _spec(args.dataset, args.scale)
    trace = build_dataset(spec)
    count = trace.to_pcap(args.out)
    print(f"{spec.name}: wrote {count} frames to {args.out}")
    return 0


def _cmd_histogram(args: argparse.Namespace) -> int:
    trace = Trace.from_pcap(args.pcap)
    parameter = parameter_by_name(args.parameter)
    builder = SignatureBuilder(parameter, min_observations=args.min_observations)
    device = MacAddress.parse(args.device)
    signature = builder.build_table(trace.table()).get(device)
    if signature is None:
        print(f"{device}: fewer than {args.min_observations} observations", file=sys.stderr)
        return 1
    for ftype_key, histogram in sorted(signature.histograms.items()):
        print(
            render_histogram(
                histogram,
                builder.bins,
                title=(
                    f"{device} — {parameter.label} — {ftype_key} "
                    f"(weight {signature.weight(ftype_key):.2f})"
                ),
                as_csv=args.csv,
            )
        )
        print()
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {value}")
    return value


def _port(text: str) -> int:
    value = int(text)
    if not 0 <= value <= MAX_PORT:
        raise argparse.ArgumentTypeError(f"must be in 0..{MAX_PORT}, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-80211",
        description="Passive 802.11 device fingerprinting (ICDCS 2012 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--parameter", default="interarrival",
                       help="network parameter (rate, size, access, txtime, interarrival)")
        p.add_argument("--min-observations", type=_positive_int, default=50)

    learn = sub.add_parser("learn", help="build a reference database from a pcap")
    learn.add_argument("pcap")
    learn.add_argument(
        "--db", required=True, help="output reference database store directory"
    )
    common(learn)
    learn.set_defaults(func=_cmd_learn)

    match = sub.add_parser("match", help="match a capture against a database")
    match.add_argument("pcap")
    match.add_argument(
        "--db", required=True, help="reference database store (written by learn)"
    )
    match.add_argument("--window-s", type=_positive_float, default=300.0)
    match.add_argument("--min-observations", type=_positive_int, default=50)
    match.set_defaults(func=_cmd_match)

    evaluate = sub.add_parser(
        "evaluate",
        help="full evaluation on one capture, or the cross-scenario "
        "matrix when no pcap is given",
    )
    evaluate.add_argument(
        "pcap", nargs="?", help="capture to evaluate (omit for matrix mode)"
    )
    evaluate.add_argument(
        "--training-s", type=_positive_float, help="training prefix (pcap mode)"
    )
    evaluate.add_argument("--window-s", type=_positive_float, default=300.0)
    evaluate.add_argument("--min-observations", type=_positive_int, default=50)
    evaluate.add_argument(
        "--scenario",
        action="append",
        help="library scenario to evaluate (repeatable; default: all)",
    )
    evaluate.add_argument(
        "--parameter",
        action="append",
        choices=[p.name for p in ALL_PARAMETERS],
        help="network parameter axis (repeatable; default: all five)",
    )
    evaluate.add_argument(
        "--measure",
        action="append",
        help="similarity measure axis (repeatable; default: cosine, "
        "intersection)",
    )
    evaluate.add_argument(
        "--out", help="write the matrix as BENCH_experiments.json here"
    )
    evaluate.add_argument(
        "--resume",
        action="store_true",
        help="skip cells already present in --out from a previous run",
    )
    evaluate.add_argument(
        "--scale",
        type=_positive_float,
        default=1.0,
        help="station-count scale factor for matrix scenarios",
    )
    evaluate.add_argument(
        "--verbose", action="store_true", help="print each cell as it finishes"
    )
    evaluate.set_defaults(func=_cmd_evaluate)

    scenarios = sub.add_parser("scenarios", help="inspect the scenario library")
    scenarios_sub = scenarios.add_subparsers(dest="scenarios_command", required=True)
    scenarios_list = scenarios_sub.add_parser(
        "list", help="list the bundled scenario presets"
    )
    scenarios_list.set_defaults(func=_cmd_scenarios_list)

    stream = sub.add_parser(
        "stream", help="online fingerprinting over a pcap (bounded memory)"
    )
    stream.add_argument("pcap")
    stream.add_argument(
        "--db", required=True, help="reference database store (written by learn)"
    )
    stream.add_argument("--window-s", type=_positive_float, default=300.0)
    stream.add_argument(
        "--slide-s",
        type=_positive_float,
        default=None,
        help="sliding-window step (default: tumbling windows)",
    )
    stream.add_argument("--min-observations", type=_positive_int, default=50)
    stream.add_argument(
        "--spoof-guard",
        action="store_true",
        help="alert when a database device's traffic stops matching it",
    )
    stream.add_argument(
        "--track",
        action="store_true",
        help="link randomised MACs back to database devices",
    )
    stream.add_argument(
        "--events", help="write every event as JSON lines to this file"
    )
    stream.add_argument(
        "--checkpoint",
        help="snapshot resumable engine state to this file (written after "
        "the last frame, before windows are flushed)",
    )
    stream.add_argument(
        "--checkpoint-every-s",
        type=_positive_float,
        default=None,
        help="additionally checkpoint every N capture-seconds",
    )
    stream.add_argument(
        "--resume", help="restore engine state from a checkpoint before streaming"
    )
    stream.add_argument(
        "--chunk-frames",
        type=_positive_int,
        default=DEFAULT_CHUNK_FRAMES,
        help="ingest columnar chunks of this many frames (the events do "
        "not depend on it; smaller chunks react to a signal sooner)",
    )
    stream.add_argument("--skip-bad-fcs", action="store_true")
    stream.add_argument("--verbose", action="store_true")
    stream.add_argument(
        "--stats-json",
        help="write the final stream statistics as JSON to this path",
    )
    stream.set_defaults(func=_cmd_stream)

    serve = sub.add_parser(
        "serve",
        help="run the multi-sensor ingest service (sensors connect with "
        "`repro-80211 sensor`)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=_port, default=0, help="TCP port (0: ephemeral, printed)"
    )
    common(serve)
    serve.add_argument(
        "--shards", type=_positive_int, default=4,
        help="consistent-hash shard engines per sensor pipeline",
    )
    serve.add_argument("--window-s", type=_positive_float, default=300.0)
    serve.add_argument("--slide-s", type=_positive_float, default=None)
    serve.add_argument(
        "--queue-chunks", type=_positive_int, default=8,
        help="bounded per-sensor ingest queue (backpressure threshold)",
    )
    serve.add_argument(
        "--merge-policy",
        choices=["replace", "keep", "error"],
        default="replace",
        help="cross-sensor conflict policy for the shared database",
    )
    serve.add_argument(
        "--checkpoint-dir",
        help="checkpoint/resume sensor sessions under this directory",
    )
    serve.add_argument(
        "--checkpoint-every-chunks", type=_positive_int, default=None,
        help="additionally checkpoint a sensor every N consumed chunks",
    )
    serve.add_argument(
        "--sessions", type=_positive_int, default=None,
        help="exit after this many completed sensor sessions "
        "(default: run until SIGINT/SIGTERM)",
    )
    serve.add_argument(
        "--db-out", help="publish the merged reference database store here"
    )
    serve.add_argument(
        "--stats-json",
        help="write the final service statistics as JSON to this path",
    )
    serve.set_defaults(func=_cmd_serve)

    sensor = sub.add_parser(
        "sensor",
        help="stream a pcap to a running ingest service as one capture "
        "session",
    )
    sensor.add_argument("pcap")
    sensor.add_argument(
        "--connect", required=True, help="service address as HOST:PORT"
    )
    sensor.add_argument(
        "--sensor-id", required=True,
        help="stable sensor name (also the checkpoint/resume key)",
    )
    sensor.add_argument(
        "--chunk-frames", type=_positive_int, default=DEFAULT_CHUNK_FRAMES
    )
    sensor.add_argument("--skip-bad-fcs", action="store_true")
    sensor.add_argument(
        "--abort-after-chunks", type=_non_negative_int, default=None,
        help="drop the connection after N chunks without END "
        "(crash/resume drills)",
    )
    sensor.set_defaults(func=_cmd_sensor)

    db = sub.add_parser(
        "db", help="manage persistent reference-database stores"
    )
    dbsub = db.add_subparsers(dest="db_command", required=True)

    db_load = dbsub.add_parser(
        "load", help="load a store and list its devices"
    )
    db_load.add_argument("store")
    db_load.set_defaults(func=_cmd_db_load)

    db_merge = dbsub.add_parser(
        "merge", help="merge several stores into one"
    )
    db_merge.add_argument("stores", nargs="+", help="input store directories")
    db_merge.add_argument("--out", required=True, help="output store directory")
    db_merge.add_argument(
        "--on-conflict",
        choices=["replace", "keep", "error"],
        default="replace",
        help="policy when a device appears in several stores "
        "(default: the later store wins)",
    )
    db_merge.set_defaults(func=_cmd_db_merge)

    db_info = dbsub.add_parser("info", help="show store metadata")
    db_info.add_argument("store")
    db_info.set_defaults(func=_cmd_db_info)

    simulate = sub.add_parser("simulate", help="generate a synthetic dataset pcap")
    simulate.add_argument(
        "dataset",
        choices=["office1", "office2", "conference1", "conference2"],
    )
    simulate.add_argument("--out", required=True)
    simulate.add_argument("--scale", type=_positive_float, default=1.0)
    simulate.set_defaults(func=_cmd_simulate)

    histogram = sub.add_parser("histogram", help="render one device's histograms")
    histogram.add_argument("pcap")
    histogram.add_argument("--device", required=True, help="MAC address")
    histogram.add_argument("--csv", action="store_true")
    common(histogram)
    histogram.set_defaults(func=_cmd_histogram)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point (``repro-80211`` / ``python -m repro.cli``)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    slide_s = getattr(args, "slide_s", None)
    if slide_s is not None and slide_s > args.window_s:
        parser.error(f"argument --slide-s: must be <= --window-s, got {slide_s}")
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
