"""Tests for the command-line tool."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.core.database import ReferenceDatabase
from repro.core.parameters import InterArrivalTime
from repro.core.signature import SignatureBuilder
from repro.persistence import load_database
from repro.traces.trace import Trace
from tests.conftest import count_match_calls
from tests.test_persistence import assert_databases_equal


@pytest.fixture(scope="module")
def office_pcap(tmp_path_factory, small_office_trace):
    path = tmp_path_factory.mktemp("cli") / "office.pcap"
    small_office_trace.to_pcap(path)
    return path


class TestParser:
    def test_subcommands_exist(self):
        parser = build_parser()
        for command in ("learn", "match", "evaluate", "simulate", "histogram"):
            args = None
            try:
                if command == "learn":
                    args = parser.parse_args(["learn", "x.pcap", "--db", "d.db"])
                elif command == "match":
                    args = parser.parse_args(["match", "x.pcap", "--db", "d.db"])
                elif command == "evaluate":
                    args = parser.parse_args(["evaluate", "x.pcap", "--training-s", "60"])
                elif command == "simulate":
                    args = parser.parse_args(["simulate", "office2", "--out", "o.pcap"])
                else:
                    args = parser.parse_args(
                        ["histogram", "x.pcap", "--device", "00:11:22:33:44:55"]
                    )
            except SystemExit:  # pragma: no cover
                pytest.fail(f"subcommand {command} failed to parse")
            assert args.command == command

    def test_missing_subcommand_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize(
        "argv",
        [
            ["db", "save", "x.pcap", "refs.db"],
            ["db", "load", "refs.db", "--json", "refs.json"],
        ],
    )
    def test_removed_db_commands_no_longer_parse(self, argv, capsys):
        """``learn`` writes stores and no JSON format is left to export."""
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        capsys.readouterr()

    def test_stream_rejects_chunk_frames_below_one(self, tmp_path, capsys):
        """A usage error before the database is even opened."""
        with pytest.raises(SystemExit) as exit_info:
            main(
                [
                    "stream",
                    str(tmp_path / "missing.pcap"),
                    "--db",
                    str(tmp_path / "missing.db"),
                    "--chunk-frames",
                    "0",
                ]
            )
        assert exit_info.value.code == 2
        assert "--chunk-frames" in capsys.readouterr().err

    def test_sensor_rejects_chunk_frames_below_one(self, tmp_path, capsys):
        """A usage error before the sensor connects (no HELLO sent)."""
        with pytest.raises(SystemExit) as exit_info:
            main(
                [
                    "sensor",
                    str(tmp_path / "missing.pcap"),
                    "--connect",
                    "127.0.0.1:9",
                    "--sensor-id",
                    "s0",
                    "--chunk-frames",
                    "-3",
                ]
            )
        assert exit_info.value.code == 2
        assert "--chunk-frames" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        [
            "match {pcap} --db {db} --window-s 0",
            "match {pcap} --db {db} --window-s -5",
            "evaluate {pcap} --training-s 9 --window-s 0",
            "stream {pcap} --db {db} --window-s -5",
            "stream {pcap} --db {db} --window-s inf",
            "stream {pcap} --db {db} --slide-s 0",
            "stream {pcap} --db {db} --window-s 10 --slide-s 20",
            "stream {pcap} --db {db} --checkpoint-every-s 0",
            "stream {pcap} --db {db} --checkpoint-every-s -1",
            "learn {pcap} --db {db} --min-observations 0",
            "match {pcap} --db {db} --min-observations 0",
            "stream {pcap} --db {db} --min-observations 0",
            "histogram {pcap} --device 00:11:22:33:44:55 --min-observations 0",
            "simulate office1 --out {pcap} --scale 0",
            "simulate office1 --out {pcap} --scale inf",
            "evaluate --scenario office-baseline --scale 0",
            "evaluate {pcap} --training-s 0",
            "evaluate {pcap} --training-s -60",
            "serve --port 70000",
            "sensor {pcap} --connect 127.0.0.1:9 --sensor-id s0 --abort-after-chunks -1",
        ],
    )
    def test_out_of_range_number_is_a_usage_error(self, tmp_path, capsys, command):
        """Exit 2 naming the last option given, before any file is opened."""
        paths = {"pcap": tmp_path / "missing.pcap", "db": tmp_path / "missing.db"}
        argv = [arg.format(**paths) for arg in command.split()]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert argv[-2] in capsys.readouterr().err


class TestDatabasePersistence:
    def test_round_trip(self, tmp_path, office_pcap, capsys):
        """``learn`` saves exactly the database learnt in memory."""
        store = tmp_path / "refs.db"
        assert main(["learn", str(office_pcap), "--db", str(store)]) == 0
        assert "learnt" in capsys.readouterr().out
        loaded = load_database(store)
        assert loaded.parameter == "interarrival"
        builder = SignatureBuilder(InterArrivalTime(), min_observations=50)
        database = ReferenceDatabase.from_training_table(
            builder, Trace.from_pcap(office_pcap).table()
        )
        assert len(database) > 0
        assert_databases_equal(database, loaded.database)

    @pytest.mark.parametrize("command", ["match", "stream"])
    def test_legacy_json_database_is_refused(
        self, tmp_path, office_pcap, small_office_trace, command
    ):
        """The single-file JSON format older builds wrote is not read."""
        builder = SignatureBuilder(InterArrivalTime(), min_observations=50)
        database = ReferenceDatabase.from_training_table(
            builder, small_office_trace.table()
        )
        legacy = tmp_path / "refs.json"
        legacy.write_text(
            json.dumps(
                {
                    "parameter": "interarrival",
                    "devices": {
                        str(device): {
                            "histograms": {
                                f: h.tolist() for f, h in signature.histograms.items()
                            },
                            "weights": signature.weights,
                            "observation_counts": signature.observation_counts,
                        }
                        for device, signature in database.items()
                    },
                }
            )
        )
        with pytest.raises(SystemExit) as exit_info:
            main([command, str(office_pcap), "--db", str(legacy)])
        assert str(legacy) in str(exit_info.value.code)
        assert "learn" in str(exit_info.value.code)


class TestCommands:
    def test_learn_then_match(self, tmp_path, office_pcap, capsys):
        db_path = tmp_path / "refs.db"
        assert main(["learn", str(office_pcap), "--db", str(db_path)]) == 0
        out = capsys.readouterr().out
        assert "learnt" in out
        assert main(
            ["match", str(office_pcap), "--db", str(db_path), "--window-s", "30"]
        ) == 0
        out = capsys.readouterr().out
        assert "MATCH" in out

    def test_match_rows_equal_extract_window_candidates(
        self, tmp_path, office_pcap, capsys
    ):
        """Every printed row is a candidate of the batch detection path,
        identified as its first maximum."""
        from repro.core.detection import DetectionConfig, extract_window_candidates
        from repro.core.parameters import parameter_by_name

        db_path = tmp_path / "refs.db"
        assert main(["learn", str(office_pcap), "--db", str(db_path)]) == 0
        capsys.readouterr()
        args = ["--window-s", "20", "--min-observations", "30"]
        assert main(["match", str(office_pcap), "--db", str(db_path), *args]) == 0
        printed = [line.split() for line in capsys.readouterr().out.splitlines()[2:]]

        loaded = load_database(db_path)
        database = loaded.database
        candidates = extract_window_candidates(
            Trace.from_pcap(office_pcap),
            SignatureBuilder(parameter_by_name(loaded.parameter), min_observations=30),
            database,
            DetectionConfig(window_s=20.0, min_observations=30),
        )
        expected = []
        for candidate in candidates:
            scores = candidate.scores
            best = database.devices[int(scores.argmax())]
            expected.append(
                [
                    str(candidate.window_index),
                    str(candidate.device),
                    str(best),
                    f"{scores.max():.3f}",
                    "MATCH" if best == candidate.device else "MISMATCH",
                ]
            )
        assert len(expected) > 3
        assert printed == expected

    def test_evaluate(self, office_pcap, capsys):
        code = main(
            [
                "evaluate",
                str(office_pcap),
                "--training-s",
                "30",
                "--window-s",
                "15",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Inter-arrival time" in out
        assert "AUC" in out

    def test_histogram(self, office_pcap, small_office_trace, capsys):
        device = sorted(small_office_trace.senders(), key=lambda m: m.value)[0]
        code = main(
            [
                "histogram",
                str(office_pcap),
                "--device",
                str(device),
                "--min-observations",
                "30",
            ]
        )
        assert code == 0
        assert "weight" in capsys.readouterr().out

    def test_histogram_unknown_device(self, office_pcap, capsys):
        code = main(
            ["histogram", str(office_pcap), "--device", "00:00:00:00:00:99"]
        )
        assert code == 1

    def test_simulate(self, tmp_path, capsys):
        out_path = tmp_path / "sim.pcap"
        code = main(
            ["simulate", "office2", "--out", str(out_path), "--scale", "0.05"]
        )
        assert code == 0
        assert out_path.exists()
        assert "wrote" in capsys.readouterr().out

    def test_stream(self, tmp_path, office_pcap, capsys):
        db_path = tmp_path / "refs.db"
        assert main(["learn", str(office_pcap), "--db", str(db_path)]) == 0
        capsys.readouterr()
        events_path = tmp_path / "events.jsonl"
        code = main(
            [
                "stream",
                str(office_pcap),
                "--db",
                str(db_path),
                "--window-s",
                "30",
                "--spoof-guard",
                "--track",
                "--events",
                str(events_path),
                "--verbose",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "streamed" in out and "windows" in out
        assert "events:" in out
        import json

        lines = [json.loads(line) for line in events_path.read_text().splitlines()]
        assert any(payload["event"] == "WindowClosed" for payload in lines)
        assert any(payload["event"] == "DeviceMatched" for payload in lines)

    def test_stream_guards_read_the_engine_match(
        self, tmp_path, office_pcap, small_office_trace, monkeypatch, capsys
    ):
        """``stream --spoof-guard --track`` makes one Algorithm 1 call
        per closed window with candidates, in the engine's matcher: the
        spoof guard and the live tracker read its rows."""
        import random

        from repro.applications.attacks import spoof_mac
        from repro.radiotap.pcap import write_trace_pcap

        store = tmp_path / "store"
        assert main(
            ["learn", str(office_pcap), "--db", str(store), "--min-observations", "30"]
        ) == 0
        device = load_database(store).database.devices[0]
        pseudonym = device.randomized(random.Random(3))
        capture = tmp_path / "pseudonymous.pcap"
        write_trace_pcap(capture, spoof_mac(small_office_trace.frames, device, pseudonym))
        calls = {
            module: count_match_calls(monkeypatch, module)
            for module in (
                "repro.streaming.matcher",
                "repro.applications.spoof_detector",
                "repro.applications.tracker",
            )
        }
        capsys.readouterr()
        events_path = tmp_path / "events.jsonl"
        argv = ["stream", str(capture), "--db", str(store), "--window-s", "30"]
        argv += ["--min-observations", "30", "--spoof-guard", "--track"]
        assert main(argv + ["--events", str(events_path)]) == 0
        out = capsys.readouterr().out
        assert f"ALERT window 0: {pseudonym} unknown" in out
        assert f"LINK window 0: {pseudonym} -> {device}" in out
        events = [json.loads(line) for line in events_path.read_text().splitlines()]
        windows = [
            event["candidate_count"]
            for event in events
            if event["event"] == "WindowClosed" and event["candidate_count"]
        ]
        assert len(windows) == 3
        assert calls == {
            "repro.streaming.matcher": windows,
            "repro.applications.spoof_detector": [],
            "repro.applications.tracker": [],
        }

    def test_stream_parser_defaults(self):
        args = build_parser().parse_args(["stream", "x.pcap", "--db", "d.db"])
        assert args.command == "stream"
        assert args.window_s == 300.0 and args.slide_s is None
        assert not args.spoof_guard and not args.track
        assert args.checkpoint is None and args.resume is None
        assert args.chunk_frames == 8192


class TestDbCommands:
    @pytest.fixture()
    def store(self, tmp_path, office_pcap, capsys):
        path = tmp_path / "store"
        assert main(
            ["learn", str(office_pcap), "--db", str(path), "--min-observations", "30"]
        ) == 0
        capsys.readouterr()
        return path

    def test_learn_creates_versioned_store(self, store, capsys):
        assert (store / "meta.json").is_file()
        assert (store / "matrices.npz").is_file()
        assert (store / "devices.jsonl").is_file()

    def test_db_info(self, store, capsys):
        assert main(["db", "info", str(store)]) == 0
        out = capsys.readouterr().out
        assert "repro-refdb v1" in out
        assert "parameter: interarrival" in out

    def test_db_load_lists_devices(self, store, capsys):
        assert main(["db", "load", str(store)]) == 0
        out = capsys.readouterr().out
        assert "devices" in out and "observations" in out
        assert "parameter=interarrival" in out
        assert len(out.splitlines()) > len(load_database(store).database)

    def test_db_merge_reports_conflicts(self, store, tmp_path, capsys):
        merged = tmp_path / "merged"
        assert main(
            ["db", "merge", str(store), str(store), "--out", str(merged)]
        ) == 0
        out = capsys.readouterr().out
        assert "replaced" in out and "merged" in out
        assert main(["db", "info", str(merged)]) == 0

    def test_match_accepts_store_directory(self, store, office_pcap, capsys):
        assert main(
            ["match", str(office_pcap), "--db", str(store), "--window-s", "30"]
        ) == 0
        assert "MATCH" in capsys.readouterr().out

    def test_stream_accepts_store_directory(self, store, office_pcap, capsys):
        assert main(
            [
                "stream",
                str(office_pcap),
                "--db",
                str(store),
                "--window-s",
                "30",
                "--min-observations",
                "30",
            ]
        ) == 0
        assert "streamed" in capsys.readouterr().out


class TestStreamCheckpointCli:
    def test_checkpoint_then_resume(self, tmp_path, office_pcap, capsys):
        store = tmp_path / "store"
        assert main(
            ["learn", str(office_pcap), "--db", str(store), "--min-observations", "30"]
        ) == 0
        checkpoint = tmp_path / "ck.json"
        assert main(
            [
                "stream",
                str(office_pcap),
                "--db",
                str(store),
                "--window-s",
                "30",
                "--min-observations",
                "30",
                "--checkpoint",
                str(checkpoint),
                "--checkpoint-every-s",
                "20",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "checkpoint ->" in out
        assert checkpoint.is_file()
        assert main(
            [
                "stream",
                str(office_pcap),
                "--db",
                str(store),
                "--window-s",
                "30",
                "--min-observations",
                "30",
                "--resume",
                str(checkpoint),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "resumed from" in out

    def test_resume_on_same_capture_skips_processed_frames(
        self, tmp_path, office_pcap, small_office_trace, capsys
    ):
        """Crash recovery: resuming against the original pcap must not
        re-feed the already-processed prefix into the restored windows."""
        store = tmp_path / "store"
        assert main(
            ["learn", str(office_pcap), "--db", str(store), "--min-observations", "30"]
        ) == 0
        checkpoint = tmp_path / "ck.json"
        args = [
            "stream",
            str(office_pcap),
            "--db",
            str(store),
            "--window-s",
            "30",
            "--min-observations",
            "30",
        ]
        assert main(args + ["--checkpoint", str(checkpoint)]) == 0
        capsys.readouterr()
        assert main(args + ["--resume", str(checkpoint)]) == 0
        out = capsys.readouterr().out
        total = len(small_office_trace)
        # The whole capture was already consumed before the snapshot,
        # so the resumed run skips it all: the frame count must stay at
        # the original total instead of doubling.
        assert f"streamed {total} frames" in out


class TestScenarioCommands:
    def test_scenarios_list(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        assert "office-baseline" in out
        assert "iot-swarm" in out
        assert "traffic" in out

    def test_evaluate_matrix_writes_bench_json(self, tmp_path, capsys):
        out_path = tmp_path / "BENCH_experiments.json"
        code = main(
            [
                "evaluate",
                "--scenario",
                "office-baseline",
                "--parameter",
                "rate",
                "--measure",
                "cosine",
                "--out",
                str(out_path),
                "--verbose",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "evaluation matrix" in out
        assert "office-baseline" in out
        payload = json.loads(out_path.read_text())
        assert payload["benchmark"] == "experiments"
        assert payload["cell_count"] == 1
        cell = payload["cells"][0]
        assert cell["scenario"] == "office-baseline"
        assert cell["parameter"] == "rate"
        assert cell["measure"] == "cosine"
        assert 0.0 <= cell["auc"] <= 1.0

    def test_evaluate_matrix_resume(self, tmp_path, capsys):
        out_path = tmp_path / "BENCH_experiments.json"
        base = [
            "evaluate",
            "--scenario",
            "office-baseline",
            "--measure",
            "cosine",
            "--out",
            str(out_path),
        ]
        assert main(base + ["--parameter", "rate"]) == 0
        capsys.readouterr()
        code = main(
            base + ["--parameter", "rate", "--parameter", "size", "--resume"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "resuming: 1 cells" in out
        payload = json.loads(out_path.read_text())
        assert payload["cell_count"] == 2

    def test_evaluate_rejects_pcap_plus_scenario(self, office_pcap, capsys):
        code = main(
            [
                "evaluate",
                str(office_pcap),
                "--scenario",
                "office-baseline",
                "--training-s",
                "30",
            ]
        )
        assert code == 2
        assert "not both" in capsys.readouterr().err

    def test_evaluate_pcap_requires_training_s(self, office_pcap, capsys):
        assert main(["evaluate", str(office_pcap)]) == 2
        assert "--training-s" in capsys.readouterr().err

    def test_evaluate_rejects_unknown_scenario(self, capsys):
        code = main(["evaluate", "--scenario", "no-such-place"])
        assert code == 2
        assert "unknown scenario" in capsys.readouterr().err
