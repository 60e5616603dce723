"""Repository benchmark: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The command generates the workload's
inputs from the seed, starts the program (``program.py``) on them,
checks every output against a reference computed here from the same
inputs, and prints as its last line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
traced launch and reports the per-layer metrics.  Workloads, metrics
and what each one is for are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
PINNED = HERE / "pinned_matrix.json"

#: End-to-end metrics, reported by every workload (units; the
#: definitions per workload are in README.md).
END_TO_END = (
    ("setup_s", "s"),
    ("frames_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
)
#: Launches that only set up; with the measuring launch's own set-up
#: they give the set-up samples whose median is ``setup_s``.
SETUP_ONLY_LAUNCHES = 4
#: Every launch must finish well inside the 180 s a run may take.
LAUNCH_TIMEOUT_S = 150.0
#: The workloads are single-threaded closed loops.  Idle OpenBLAS
#: worker threads spin on the CPU the sensor generator and the server's
#: threads need; on two CPUs that made live-stream passes up to five
#: times slower whenever anything else ran.
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
FLOAT_TOLERANCE = 1e-9

clock = time.perf_counter


class BenchmarkError(RuntimeError):
    """The benchmark could not measure (as opposed to wrong outputs)."""


# -- launching the program -------------------------------------------------
class Launch:
    """One program process, timed from start to its ready line."""

    def __init__(self, workload: str, work: Path, args, *flags: str) -> None:
        command = [
            sys.executable, str(HERE / "program.py"), workload,
            "--work", str(work), "--seed", str(args.seed),
            "--seconds", str(args.seconds), *flags,
        ]
        env = dict(os.environ, PYTHONPATH=str(SRC), **ONE_BLAS_THREAD)
        start = clock()
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=env, cwd=ROOT,
        )
        self.ready_line = self.readline()
        self.setup_s = clock() - start

    def readline(self) -> str:
        line = self.process.stdout.readline()
        if not line:
            self.finish()
            raise BenchmarkError("program exited before reporting")
        return line.strip()

    def send(self, command: str) -> None:
        self.process.stdin.write(command + "\n")
        self.process.stdin.flush()

    def finish(self) -> None:
        try:
            code = self.process.wait(timeout=LAUNCH_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
            raise BenchmarkError("program timed out") from None
        finally:
            self.process.stdin.close()
            self.process.stdout.close()
        if code != 0:
            raise BenchmarkError(f"program exited with code {code}")


def setup_samples(workload: str, work: Path, args) -> list[float]:
    samples = []
    for _ in range(SETUP_ONLY_LAUNCHES):
        launch = Launch(workload, work, args, "--setup-only")
        launch.finish()
        samples.append(launch.setup_s)
    return samples


def measure(workload: str, work: Path, args, drive=None) -> tuple[Launch, dict, list]:
    """The measuring launch; returns it, its result and the pass walls
    measured here (``sensor-fleet`` only)."""
    flags = ["--trace"] if args.trace else []
    launch = Launch(workload, work, args, *flags)
    try:
        walls = drive(launch) if drive is not None else []
    finally:
        launch.finish()
    return launch, json.loads((work / "result.json").read_text()), walls


# -- comparisons -----------------------------------------------------------
def close(a: float, b: float) -> bool:
    return abs(a - b) <= FLOAT_TOLERANCE


def cells_agree(got: dict, expected: dict) -> bool:
    for field, value in expected.items():
        produced = got.get(field)
        if isinstance(value, float) and isinstance(produced, (int, float)):
            if not close(produced, value):
                return False
        elif produced != value:
            return False
    return True


def signatures_agree(got, expected) -> bool:
    if set(got.histograms) != set(expected.histograms):
        return False
    if dict(got.observation_counts) != dict(expected.observation_counts):
        return False
    for ftype, histogram in expected.histograms.items():
        if not close(got.weights[ftype], expected.weights[ftype]):
            return False
        if len(got.histograms[ftype]) != len(histogram):
            return False
        if any(not close(a, b) for a, b in zip(got.histograms[ftype], histogram)):
            return False
    return True


def database_mismatches(got, expected) -> int:
    """Reference devices of ``expected`` that ``got`` lacks or differs on,
    plus devices ``got`` has in excess (order included)."""
    missing = sum(
        1
        for device, signature in expected.items()
        if got.get(device) is None or not signatures_agree(got.get(device), signature)
    )
    extra = sum(1 for device in got.devices if device not in expected)
    order = 0 if [d for d in got.devices if d in expected] == expected.devices else 1
    return missing + extra + order


# -- scenario-matrix -------------------------------------------------------
def matrix_key(cell: dict) -> str:
    return f"{cell['scenario']}/{cell['parameter']}/{cell['measure']}"


#: The per-cell fields a pinned reference keeps (the rest restate the
#: preset's settings).
PINNED_FIELDS = (
    "auc", "identification_at_0.01", "identification_at_0.1",
    "reference_devices", "known_candidates", "total_candidates", "frame_count",
)


def reference_matrix(seed: int) -> dict[str, dict]:
    """The pinned cells for ``seed``, or cells computed here if none."""
    pinned = json.loads(PINNED.read_text())
    rows = pinned["seeds"].get(str(seed))
    if rows is not None:
        return {
            key: dict(zip(pinned["fields"], row)) for key, row in zip(pinned["cells"], rows)
        }
    return {matrix_key(payload): payload for payload in computed_matrix(seed)}


def computed_matrix(seed: int) -> list[dict]:
    import inputs
    from repro.evaluation.cache import SimulationCache
    from repro.evaluation.matrix import evaluate_cell, matrix_cells

    cache = SimulationCache()
    return [
        evaluate_cell(key, cache=cache, seed=seed, scale=inputs.MATRIX_SCALE).to_payload()
        for key in matrix_cells()
    ]


def golden_failures() -> tuple[int, int]:
    """The three golden presets at their own seeds against tests/golden."""
    from repro.evaluation.cache import SimulationCache
    from repro.evaluation.matrix import run_matrix

    cache = SimulationCache()
    attempted = failed = 0
    office = json.loads((GOLDEN / "evaluate_small_office.json").read_text())["parameters"]
    for cell in run_matrix(scenarios=["office-baseline"], measures=["cosine"], cache=cache).cells:
        expected = office[cell.parameter]
        attempted += 1
        failed += not cells_agree(cell.to_payload(), expected)
    for scenario in ("lecture-hall", "iot-swarm"):
        path = GOLDEN / f"matrix_{scenario.replace('-', '_')}.json"
        golden = {matrix_key(raw): raw for raw in json.loads(path.read_text())["cells"]}
        produced = {
            matrix_key(cell.to_payload()): cell.to_payload()
            for cell in run_matrix(scenarios=[scenario], measures=["cosine"], cache=cache).cells
        }
        for key in set(golden) | set(produced):
            attempted += 1
            failed += key not in golden or key not in produced or not cells_agree(
                produced[key], golden[key]
            )
    return attempted, failed


def check_matrix(result: dict, args) -> tuple[int, int]:
    reference = reference_matrix(args.seed)
    attempted = failed = 0
    for run in result["passes"]:
        got = {matrix_key(cell): cell for cell in run["cells"]}
        attempted += len(reference)
        failed += sum(
            1 for key, expected in reference.items()
            if key not in got or not cells_agree(got[key], expected)
        )
    golden_attempted, golden_failed = golden_failures()
    return attempted + golden_attempted, failed + golden_failed


def run_matrix_workload(work: Path, args) -> tuple[dict, int, int, list]:
    setups = [] if args.trace else setup_samples("scenario-matrix", work, args)
    launch, result, _ = measure("scenario-matrix", work, args)
    attempted, failed = check_matrix(result, args)
    return result, attempted, failed, setups + [launch.setup_s]


# -- live-stream -----------------------------------------------------------
def batch_windows(work: Path) -> dict[str, list]:
    """Each window's (device, best device, similarity) triples by the
    batch detection path over the whole capture.

    These are the candidate extraction and matcher calls of
    ``extract_window_candidates``, matched in blocks and reduced by
    argmax (the first maximum, as ``evaluate_identification`` picks),
    because one similarity dict per candidate over the whole capture
    would take most of a gigabyte.
    """
    import inputs
    from repro.core.detection import DetectionConfig, _columnar_window_candidates
    from repro.core.matcher import batch_match_signatures
    from repro.core.parameters import parameter_by_name
    from repro.core.signature import SignatureBuilder
    from repro.persistence.store import load_database

    database = load_database(work / "store").database
    devices = database.devices
    table = inputs.whole_table(inputs.load_capture(work / "capture"))
    builder = SignatureBuilder(
        parameter_by_name(inputs.LIVE_PARAMETER),
        min_observations=inputs.LIVE_MIN_OBSERVATIONS,
    )
    config = DetectionConfig(
        window_s=inputs.LIVE_WINDOW_S, min_observations=inputs.LIVE_MIN_OBSERVATIONS
    )
    validation = types.SimpleNamespace(table=lambda: table)
    candidates = _columnar_window_candidates(validation, builder, config)
    windows: dict[str, list] = {}
    for lo in range(0, len(candidates), 512):
        block = candidates[lo : lo + 512]
        scores = batch_match_signatures([c.signature for c in block], database)
        for candidate, row in zip(block, scores):
            best = int(row.argmax())
            windows.setdefault(str(candidate.window_index), []).append(
                [candidate.device.value, devices[best].value, float(row[best])]
            )
    return windows


def windows_agree(got: list, expected: list) -> bool:
    got, expected = sorted(got), sorted(expected)
    return len(got) == len(expected) and all(
        a[0] == b[0] and a[1] == b[1] and close(a[2], b[2]) for a, b in zip(got, expected)
    )


def run_live_workload(work: Path, args) -> tuple[dict, int, int, list]:
    import inputs

    inputs.write_live_inputs(args.seed, work)
    setups = [] if args.trace else setup_samples("live-stream", work, args)
    launch, result, _ = measure("live-stream", work, args)
    reference = batch_windows(work)
    attempted = failed = 0
    for run in result["passes"]:
        windows = run["windows"]
        attempted += len(windows)
        failed += sum(
            1 for index in set(windows) | set(reference)
            if not windows_agree(windows.get(index, []), reference.get(index, []))
        )
    return result, attempted, failed, setups + [launch.setup_s]


# -- sensor-fleet ----------------------------------------------------------
#: Per-sensor session counters that must equal ``run_inline``'s.
SESSION_FIELDS = (
    "sensor", "frames", "chunks", "completed", "windows_closed", "candidates",
    "events", "peak_resident_devices",
)


def fleet_sessions(work: Path) -> tuple[dict, list[bytes]]:
    """Per-sensor chunks and the wire bytes each sensor session sends."""
    import inputs
    from repro.service.session import SensorSession

    chunks = {
        sensor: inputs.chunk_tables(inputs.load_capture(work / sensor), inputs.CHUNK_FRAMES)
        for sensor in inputs.FLEET_SENSORS
    }
    sessions = []
    for sensor, tables in chunks.items():
        buffer = io.BytesIO()
        SensorSession(sensor, tables).stream_to(buffer)
        sessions.append(buffer.getvalue())
    return chunks, sessions


def send_session(port: int, data: bytes, errors: list) -> None:
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=LAUNCH_TIMEOUT_S) as conn:
            conn.sendall(data)
            conn.shutdown(socket.SHUT_WR)
    except OSError as error:
        errors.append(error)


def fleet_driver(sessions: list[bytes], args):
    """Generator side: one connection per sensor, pass after pass."""

    def drive(launch: Launch) -> list[float]:
        import program

        walls: list[float] = []
        line = launch.ready_line
        started = clock()
        while True:
            port = int(line.split()[1])
            errors: list = []
            senders = [
                threading.Thread(target=send_session, args=(port, data, errors))
                for data in sessions
            ]
            start = clock()
            for sender in senders:
                sender.start()
            published = launch.readline()
            walls.append(clock() - start)
            for sender in senders:
                sender.join(timeout=LAUNCH_TIMEOUT_S)
            if errors or not published.startswith("PUBLISHED"):
                launch.send("stop")
                raise BenchmarkError(f"sensor session failed: {errors or published}")
            if args.trace:
                if len(walls) == 1:
                    launch.send("trace")
                else:
                    launch.send(f"stop {walls[1]!r} {walls[0]!r}")
                    return walls
            elif program.more_passes(walls, started, args.seconds):
                launch.send("again")
            else:
                launch.send("stop")
                return walls
            line = launch.readline()

    return drive


def run_fleet_workload(work: Path, args) -> tuple[dict, int, int, list]:
    import inputs
    from repro.persistence.store import load_database
    from repro.service.server import ServiceConfig, run_inline
    from repro.core.parameters import parameter_by_name
    from repro.streaming.windows import WindowConfig

    inputs.write_fleet_inputs(args.seed, work)
    encode_tracer = None
    if args.trace:
        import layers
        from tracer import Tracer

        encode_tracer = Tracer()
        layers.install(encode_tracer)
    try:
        chunks, sessions = fleet_sessions(work)
    finally:
        if encode_tracer is not None:
            encode_tracer.restore()
    setups = [] if args.trace else setup_samples("sensor-fleet", work, args)
    launch, result, walls = measure("sensor-fleet", work, args, fleet_driver(sessions, args))

    def config(shards: int) -> ServiceConfig:
        return ServiceConfig(
            parameter=parameter_by_name(inputs.LIVE_PARAMETER),
            shard_count=shards,
            window=WindowConfig(window_s=inputs.LIVE_WINDOW_S),
            min_observations=inputs.LIVE_MIN_OBSERVATIONS,
            queue_chunks=inputs.FLEET_QUEUE_CHUNKS,
        )

    inline_start = clock()
    inline = run_inline(chunks, config(inputs.FLEET_SHARDS))
    inline_s = clock() - inline_start
    expected = inline.database
    # The merged store keeps only each device's latest window, so the
    # sessions' counters are compared too: they cover every window.
    expected_sensors = [
        {field: stats[field] for field in SESSION_FIELDS}
        for stats in (sensor.to_dict() for sensor in inline.stats())
    ]
    attempted = failed = 0
    published = []
    for number, run in enumerate(result["passes"]):
        run["wall_s"] = walls[number]
        got = load_database(work / f"published-{number}").database
        published.append(got)
        attempted += len(expected) + len(expected_sensors)
        failed += database_mismatches(got, expected)
        sensors = [{field: s[field] for field in SESSION_FIELDS} for s in run["sensors"]]
        failed += sum(a != b for a, b in zip(sensors, expected_sensors))
        failed += abs(len(sensors) - len(expected_sensors))
    if args.trace:
        single = run_inline(chunks, config(1)).database
        merged = published[-1]
        layer = result["layers"]
        layer["service.wire.encode_s"] = encode_tracer.reduce().get(
            "service.wire.encode", {}
        ).get("total_s", 0.0)
        layer["service.server.inline_ratio"] = walls[0] / inline_s
        layer["service.server.single_engine_mismatch"] = sum(
            1 for device, signature in merged.items()
            if single.get(device) is None or not signatures_agree(signature, single.get(device))
        )
    return result, attempted, failed, setups + [launch.setup_s]


# -- reporting -------------------------------------------------------------
def percentile_ms(latencies_s: list[float], percent: int) -> float:
    cuts = statistics.quantiles(latencies_s, n=100, method="inclusive")
    return 1000.0 * (statistics.median(latencies_s) if percent == 50 else cuts[percent - 1])


def fastest_passes(passes: list[dict]) -> list[dict]:
    """The run's fastest quarter of passes, and at least two.

    The machine the bounds were set on switches between a fast and a
    slow state for tens of seconds at a time, whatever the benchmark
    does: the same live-stream pass takes 1.8 s or 2.9 s, and a
    pure-Python loop slows in step.  Contention only ever adds time, so
    the fastest passes show the program's own speed; figures over all
    passes show how much of the run the slow state held.
    """
    ordered = sorted(passes, key=lambda run: run["wall_s"])
    return ordered[: max(2, len(ordered) // 4)]


def end_to_end(result: dict, setups: list[float]) -> tuple[dict[str, float], list[float]]:
    """The metrics, and the latency samples they rest on."""
    kept = fastest_passes(result["passes"])
    latencies = [value for run in kept for value in run["latencies_s"]]
    return {
        "setup_s": statistics.median(setups),
        "frames_per_s": statistics.median(run["frames"] / run["wall_s"] for run in kept),
        "latency_p50_ms": percentile_ms(latencies, 50),
        "peak_rss_mb": result["peak_rss_mb"],
    }, latencies


RUNNERS = {
    "scenario-matrix": run_matrix_workload,
    "live-stream": run_live_workload,
    "sensor-fleet": run_fleet_workload,
}


WORKLOADS = tuple(RUNNERS)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"no program sources at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        import numpy  # noqa: F401
        import repro  # noqa: F401
    except ImportError as error:
        print(f"cannot import the program: {error}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_build" / "perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spans = ROOT / ".bench_build" / "perfbench" / f"spans-{args.workload}-{args.seed}.json"
    try:
        result, attempted, failed, setups = RUNNERS[args.workload](work, args)
        if args.trace:
            os.replace(work / "spans.json", spans)
    except BenchmarkError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    passes = len(result["passes"])
    if args.trace:
        import layers

        units = dict(layers.PER_LAYER)
        values = result["layers"]
        print(f"{args.workload}: {passes} passes, one traced; spans in {spans}")
    else:
        units = dict(END_TO_END)
        values, latencies = end_to_end(result, setups)
        # p95 is printed, not reported: its run-to-run spread on the
        # machine the bounds were set on exceeded the largest bound.
        print(
            f"{args.workload}: {passes} passes, the fastest "
            f"{len(fastest_passes(result['passes']))} kept, {len(latencies)} latency "
            f"samples (p95 {percentile_ms(latencies, 95):.3f} ms), {len(setups)} set-ups"
        )
    report = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
