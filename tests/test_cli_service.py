"""CLI coverage for the ingest service and graceful shutdown.

``serve``/``sensor`` end-to-end over loopback TCP, SIGINT/SIGTERM
winding down ``stream`` and ``serve`` cleanly (final checkpoint, sinks
flushed, machine-readable stats), and the ``--stats-json`` dumps both
commands grew in this PR.
"""

from __future__ import annotations

import json
import signal
import socket
import threading
import time

import pytest

from repro.cli import build_parser, main
from repro.persistence.store import load_database


@pytest.fixture(scope="module")
def office_pcap(tmp_path_factory, small_office_trace):
    path = tmp_path_factory.mktemp("cli-service") / "office.pcap"
    small_office_trace.to_pcap(path)
    return path


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def wait_for_port(port: int, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while True:
        try:
            socket.create_connection(("127.0.0.1", port), timeout=0.2).close()
            return
        except OSError:
            if time.monotonic() > deadline:
                raise AssertionError(f"port {port} never opened")
            time.sleep(0.02)


class TestServeParser:
    def test_serve_and_sensor_subcommands_parse(self):
        parser = build_parser()
        serve = parser.parse_args(["serve", "--sessions", "3"])
        assert serve.command == "serve"
        assert serve.shards == 4 and serve.queue_chunks == 8
        assert serve.merge_policy == "replace" and serve.port == 0
        sensor = parser.parse_args(
            ["sensor", "x.pcap", "--connect", "127.0.0.1:9", "--sensor-id", "s0"]
        )
        assert sensor.command == "sensor"
        assert sensor.chunk_frames == 8192
        assert sensor.abort_after_chunks is None

    @pytest.mark.parametrize(
        "option",
        ["--shards", "--queue-chunks", "--checkpoint-every-chunks", "--sessions"],
    )
    def test_serve_rejects_counts_below_one(self, option, capsys):
        """A usage error before the server is configured or listens."""
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", option, "0"])
        assert exit_info.value.code == 2
        assert option in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option, value",
        [
            ("--window-s", "0"),
            ("--window-s", "-5"),
            ("--slide-s", "0"),
            ("--min-observations", "0"),
        ],
    )
    def test_serve_rejects_out_of_range_numbers(self, option, value, capsys):
        """Rejected while parsing, so the server never starts listening."""
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["serve", option, value])
        assert exit_info.value.code == 2
        assert option in capsys.readouterr().err

    def test_serve_rejects_slide_longer_than_window(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--window-s", "10", "--slide-s", "20"])
        assert exit_info.value.code == 2
        assert "--slide-s" in capsys.readouterr().err

    def test_stream_grew_stats_json(self):
        args = build_parser().parse_args(
            ["stream", "x.pcap", "--db", "d.db", "--stats-json", "s.json"]
        )
        assert args.stats_json == "s.json"

    @pytest.mark.parametrize(
        "address", ["nonsense", "127.0.0.1:70000", "127.0.0.1:0", "127.0.0.1:-1"]
    )
    def test_sensor_rejects_malformed_connect(self, office_pcap, capsys, address):
        code = main(
            [
                "sensor",
                str(office_pcap),
                "--connect",
                address,
                "--sensor-id",
                "s0",
            ]
        )
        assert code == 2
        assert "HOST:PORT" in capsys.readouterr().err


class TestServeSensorEndToEnd:
    def run_sensors(self, port, jobs):
        """Run each ``main(argv)`` sensor job once the port is open."""
        codes = {}

        def run(name, argv):
            wait_for_port(port)
            codes[name] = main(argv)

        threads = [
            threading.Thread(target=run, args=(name, argv))
            for name, argv in jobs.items()
        ]
        for thread in threads:
            thread.start()
        return threads, codes

    def test_two_sensors_publish_merged_store(self, tmp_path, office_pcap, capsys):
        port = free_port()
        store = tmp_path / "refs.store"
        stats_path = tmp_path / "serve-stats.json"
        jobs = {
            sensor_id: [
                "sensor",
                str(office_pcap),
                "--connect",
                f"127.0.0.1:{port}",
                "--sensor-id",
                sensor_id,
                "--chunk-frames",
                "256",
            ]
            for sensor_id in ("s0", "s1")
        }
        threads, codes = self.run_sensors(port, jobs)
        code = main(
            [
                "serve",
                "--port",
                str(port),
                "--window-s",
                "30",
                "--min-observations",
                "30",
                "--shards",
                "3",
                "--sessions",
                "2",
                "--db-out",
                str(store),
                "--stats-json",
                str(stats_path),
            ]
        )
        for thread in threads:
            thread.join(timeout=30.0)
        assert code == 0
        assert codes == {"s0": 0, "s1": 0}
        out = capsys.readouterr().out
        assert "listening on 127.0.0.1" in out
        assert "served 2 sensors" in out and "published" in out

        loaded = load_database(store)
        assert loaded.parameter == "interarrival"
        assert len(loaded.database.devices) > 0

        payload = json.loads(stats_path.read_text())
        assert payload["interrupted"] is False
        assert payload["shard_count"] == 3
        assert {s["sensor"] for s in payload["sensors"]} == {"s0", "s1"}
        assert all(s["completed"] for s in payload["sensors"])
        assert payload["frames"] == 2 * payload["sensors"][0]["frames"]
        assert payload["queue_peak"] <= 8

    def test_aborted_sensor_resumes_through_cli(self, tmp_path, office_pcap, capsys):
        port = free_port()
        ckpt = tmp_path / "ckpts"
        stats_path = tmp_path / "stats.json"
        base = [
            "sensor",
            str(office_pcap),
            "--connect",
            f"127.0.0.1:{port}",
            "--sensor-id",
            "flaky",
            "--chunk-frames",
            "128",
        ]

        outcome = {}

        def crash_then_resume():
            wait_for_port(port)
            outcome["abort"] = main(base + ["--abort-after-chunks", "3"])
            # Give the server a moment to drain and checkpoint the
            # paused session before reconnecting.
            deadline = time.monotonic() + 10.0
            while not (ckpt / "flaky" / "manifest.json").exists():
                assert time.monotonic() < deadline
                time.sleep(0.05)
            outcome["resume"] = main(base)

        thread = threading.Thread(target=crash_then_resume)
        thread.start()
        code = main(
            [
                "serve",
                "--port",
                str(port),
                "--window-s",
                "30",
                "--min-observations",
                "30",
                "--sessions",
                "1",
                "--checkpoint-dir",
                str(ckpt),
                "--stats-json",
                str(stats_path),
            ]
        )
        thread.join(timeout=30.0)
        assert code == 0
        assert outcome["abort"] == 1  # aborted sessions exit non-zero
        assert outcome["resume"] == 0
        payload = json.loads(stats_path.read_text())
        (sensor,) = payload["sensors"]
        assert sensor["sensor"] == "flaky"
        assert sensor["completed"] is True
        out = capsys.readouterr().out
        assert "completed" in out


class TestGracefulShutdown:
    def test_stream_sigint_checkpoints_and_reports(
        self, tmp_path, office_pcap, capsys, monkeypatch
    ):
        db_path = tmp_path / "refs.db"
        assert main(["learn", str(office_pcap), "--db", str(db_path)]) == 0
        capsys.readouterr()

        import repro.streaming as streaming

        real_source = streaming.pcap_chunk_source

        def interrupting_source(path, chunk_frames, skip_bad_fcs=False):
            chunks = real_source(
                path, chunk_frames=chunk_frames, skip_bad_fcs=skip_bad_fcs
            )
            for index, chunk in enumerate(chunks):
                if index == 4:
                    signal.raise_signal(signal.SIGINT)
                yield chunk

        monkeypatch.setattr(streaming, "pcap_chunk_source", interrupting_source)
        checkpoint = tmp_path / "engine.ckpt"
        stats_path = tmp_path / "stream-stats.json"
        code = main(
            [
                "stream",
                str(office_pcap),
                "--db",
                str(db_path),
                "--window-s",
                "30",
                "--chunk-frames",
                "50",
                "--checkpoint",
                str(checkpoint),
                "--stats-json",
                str(stats_path),
            ]
        )
        assert code == 128 + signal.SIGINT
        out = capsys.readouterr().out
        assert "interrupted (SIGINT)" in out
        assert checkpoint.exists()
        payload = json.loads(stats_path.read_text())
        assert payload["interrupted"] is True
        assert payload["frames"] == 250  # stopped right after the signal

        # The interrupted run left resumable state: picking the same
        # capture back up processes exactly the remaining frames.
        monkeypatch.setattr(streaming, "pcap_chunk_source", real_source)
        code = main(
            [
                "stream",
                str(office_pcap),
                "--db",
                str(db_path),
                "--window-s",
                "30",
                "--resume",
                str(checkpoint),
                "--stats-json",
                str(stats_path),
            ]
        )
        assert code == 0
        total = sum(len(chunk) for chunk in real_source(office_pcap))
        payload = json.loads(stats_path.read_text())
        assert payload["interrupted"] is False
        assert payload["frames"] == total

    def test_stream_stats_json_uninterrupted(self, tmp_path, office_pcap, capsys):
        db_path = tmp_path / "refs.db"
        assert main(["learn", str(office_pcap), "--db", str(db_path)]) == 0
        stats_path = tmp_path / "stats.json"
        code = main(
            [
                "stream",
                str(office_pcap),
                "--db",
                str(db_path),
                "--window-s",
                "30",
                "--chunk-frames",
                "512",
                "--stats-json",
                str(stats_path),
            ]
        )
        assert code == 0
        payload = json.loads(stats_path.read_text())
        assert payload["interrupted"] is False
        assert payload["frames"] > 0
        assert payload["windows_closed"] > 0
        assert payload["duration_s"] > 0
        assert "WindowClosed" in payload["events_by_type"]
        assert "stats ->" in capsys.readouterr().out

    def test_serve_sigterm_winds_down(self, tmp_path, capsys):
        stats_path = tmp_path / "stats.json"
        timer = threading.Timer(
            0.6, signal.raise_signal, [signal.SIGTERM]
        )
        timer.start()
        try:
            code = main(
                [
                    "serve",
                    "--port",
                    str(free_port()),
                    "--stats-json",
                    str(stats_path),
                ]
            )
        finally:
            timer.cancel()
        assert code == 128 + signal.SIGTERM
        out = capsys.readouterr().out
        assert "interrupted (SIGTERM)" in out
        payload = json.loads(stats_path.read_text())
        assert payload["interrupted"] is True
        assert payload["sensors"] == []
