"""End-to-end tests for the streaming engine.

The load-bearing invariant: with tumbling windows, the engine
consuming a chunked source produces exactly the matches of the
batch pipeline (:func:`~repro.core.detection.extract_window_candidates`)
on the same trace — across in-memory, pcap and live-simulator sources.
"""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro.core.database import ReferenceDatabase
from repro.core.detection import DetectionConfig, extract_window_candidates
from repro.core.parameters import InterArrivalTime
from repro.core.signature import SignatureBuilder
from repro.dot11.mac import MacAddress
from repro.streaming import (
    CollectingSink,
    DeviceMatched,
    JsonLinesSink,
    LiveTracker,
    OnlineRogueApGuard,
    OnlineSpoofGuard,
    PseudonymLinked,
    RogueApAlert,
    SpoofAlert,
    StreamEngine,
    StreamingSignatureBuilder,
    WindowClosed,
    WindowConfig,
    pcap_chunk_source,
    replay_chunk_source,
    table_chunks,
)
from repro.streaming.windows import WindowManager
from repro.traces.table import FrameTable
from tests import oracles
from tests.test_wire import wire_round_trip

PARAMETER = InterArrivalTime()
WINDOW_S = 15.0
MIN_OBS = 30


@pytest.fixture(scope="module")
def reference_setup(small_office_trace):
    """Training database + validation remainder of the office trace."""
    split = small_office_trace.split(45.0)
    builder = SignatureBuilder(PARAMETER, min_observations=MIN_OBS)
    database = ReferenceDatabase.from_training_table(builder, split.training.table())
    assert len(database) >= 2
    return builder, database, split


def make_engine(database, window_s=WINDOW_S, **kwargs):
    return StreamEngine(
        lambda: StreamingSignatureBuilder(PARAMETER, min_observations=MIN_OBS),
        database=database,
        window=WindowConfig(window_s=window_s),
        **kwargs,
    )


def _busy_capture(seed: int, frames: int, devices: int = 120) -> FrameTable:
    """A busy channel as one table: ``devices`` senders, each with its
    own gap scale and frame-type mix, and one ACK row in five."""
    rng = np.random.default_rng(seed)
    device = rng.integers(devices, size=frames)
    scale = np.linspace(60.0, 400.0, devices)[device]
    ftype = (device + (rng.random(frames) < 0.3)) % 3
    ack = rng.random(frames) < 0.2
    ftype[ack] = 3
    return FrameTable(
        timestamp_us=np.cumsum(rng.exponential(scale)) + 1000.0,
        size=np.full(frames, 200.0),
        rate_mbps=np.full(frames, 54.0),
        sender_idx=np.where(ack, -1, device),
        ftype_idx=ftype,
        senders=tuple(MacAddress(0x02_00_00_00_10_00 + d) for d in range(devices)),
        ftype_keys=("QoS Data", "Data", "Null", "ACK"),
    )


def _interned_chunks(table: FrameTable, chunk_frames: int) -> list[FrameTable]:
    """``table`` cut into chunks that each intern their own senders, in
    first-appearance order, as a live source's chunks do."""
    chunks = []
    for lo in range(0, len(table), chunk_frames):
        span = table.slice_rows(lo, min(lo + chunk_frames, len(table)))
        codes = span.sender_idx[span.sender_idx >= 0]
        present = list(dict.fromkeys(codes.tolist()))
        local = np.full(len(table.senders) + 1, -1)
        local[present] = np.arange(len(present))
        chunks.append(
            FrameTable(
                timestamp_us=span.timestamp_us,
                size=span.size,
                rate_mbps=span.rate_mbps,
                sender_idx=local[span.sender_idx],
                ftype_idx=span.ftype_idx,
                senders=tuple(table.senders[code] for code in present),
                ftype_keys=span.ftype_keys,
            )
        )
    return chunks


def batch_best(candidates):
    """(window, device) → (best reference, similarity) from the batch run."""
    out = {}
    for candidate in candidates:
        out[(candidate.window_index, candidate.device)] = candidate.best
    return out


class TestBatchPipelineEquivalence:
    def test_matches_equal_extract_window_candidates(self, reference_setup):
        builder, database, split = reference_setup
        config = DetectionConfig(window_s=WINDOW_S, min_observations=MIN_OBS)
        expected = batch_best(
            extract_window_candidates(split.validation, builder, database, config)
        )
        sink = CollectingSink()
        engine = make_engine(database, sinks=[sink])
        stats = engine.run_chunked(replay_chunk_source(split.validation.table(), 1000))
        matches = {
            (m.window_index, m.device): (m.best_device, m.similarity)
            for m in sink.of_type(DeviceMatched)
        }
        assert set(matches) == set(expected)
        for key, (device, similarity) in expected.items():
            assert matches[key][0] == device
            assert matches[key][1] == pytest.approx(similarity, abs=1e-9)
        assert stats.frames == len(split.validation)
        assert stats.candidates == len(expected)

    def test_pcap_source_equals_loaded_trace(self, reference_setup, tmp_path):
        """Pcap chunk iteration == materialising the same pcap.

        (The pcap container itself quantises timestamps to whole µs,
        so the reference is the *loaded* trace, not the pre-write one.)
        """
        from repro.traces.trace import Trace

        _, database, split = reference_setup
        path = tmp_path / "validation.pcap"
        split.validation.to_pcap(path)

        def run(source):
            sink = CollectingSink()
            make_engine(database, sinks=[sink]).run_chunked(source)
            return [
                (m.window_index, m.device, m.best_device, round(m.similarity, 9))
                for m in sink.of_type(DeviceMatched)
            ]

        loaded = Trace.from_pcap(path)
        assert run(pcap_chunk_source(path, chunk_frames=777)) == run(
            replay_chunk_source(loaded.table())
        )

    def test_live_simulator_source(self, reference_setup):
        """The engine consumes the simulator's incremental feed."""
        from repro.simulator import CbrTraffic, Scenario, StationSpec

        _, database, _ = reference_setup
        scenario = Scenario(duration_s=40.0, seed=5, encrypted=True)
        scenario.add_station(
            StationSpec(
                name="alice",
                profile="intel-2200bg-linux",
                sources=[CbrTraffic(interval_ms=30)],
            )
        )
        sink = CollectingSink()
        stats = make_engine(database, sinks=[sink]).run_chunked(
            scenario.stream(chunk_s=2.0)
        )
        assert stats.frames > 0
        assert stats.windows_closed >= 2
        assert sink.of_type(WindowClosed)


class TestEngineBehaviour:
    def test_window_closed_events_carry_bookkeeping(self, reference_setup):
        _, database, split = reference_setup
        sink = CollectingSink()
        stats = make_engine(database, sinks=[sink]).run_chunked(
            replay_chunk_source(split.validation.table())
        )
        closed = sink.of_type(WindowClosed)
        assert len(closed) == stats.windows_closed
        assert [event.window_index for event in closed] == sorted(
            event.window_index for event in closed
        )
        assert sum(event.frame_count for event in closed) >= len(split.validation)
        assert stats.peak_resident_devices >= max(
            event.candidate_count for event in closed
        )
        assert stats.duration_s > 0

    def test_engine_without_database_still_windows(self, reference_setup):
        _, _, split = reference_setup
        sink = CollectingSink()
        engine = StreamEngine(
            lambda: StreamingSignatureBuilder(PARAMETER, min_observations=MIN_OBS),
            sinks=[sink],
        )
        engine.run_chunked(
            replay_chunk_source(split.validation.table().slice_rows(0, 2000))
        )
        assert engine.matcher is None
        assert sink.of_type(WindowClosed)
        assert not sink.of_type(DeviceMatched)

    def test_address_hashing_does_not_depend_on_chunking(self, monkeypatch):
        """The live path keys its per-span work and each window's sender
        set by MAC integer: the only addresses hashed are the candidates
        a closed window hands the matcher (its signature block indexes
        them once), so the count equals the candidate count, and
        512-row chunks hash exactly as often as 8192-row ones."""
        training, capture = (_busy_capture(seed, 60_000) for seed in (1, 2))
        builder = SignatureBuilder(PARAMETER, min_observations=MIN_OBS)
        database = ReferenceDatabase.from_training_table(builder, training)
        hashes = {}
        for chunk_frames in (8192, 512):
            chunks = _interned_chunks(capture, chunk_frames)
            counted = [0]
            plain_hash = MacAddress.__hash__

            def counting_hash(self):
                counted[0] += 1
                return plain_hash(self)

            sink = CollectingSink()
            engine = make_engine(database, window_s=1.0, sinks=[sink])
            with monkeypatch.context() as patch:
                patch.setattr(MacAddress, "__hash__", counting_hash)
                stats = engine.run_chunked(chunks)
            assert sink.of_type(DeviceMatched)
            assert counted[0] == stats.candidates
            hashes[chunk_frames] = counted[0]
        assert hashes[512] == hashes[8192]

    @pytest.mark.parametrize("slide_s", [None, 0.1])
    @pytest.mark.parametrize("restore", [False, True])
    def test_window_senders_equal_batch_active_senders(self, slide_s, restore):
        """``ClosedWindow.senders`` holds MAC integers but reads as the
        batch ``active_senders()`` of the window's rows, for tumbling
        and sliding windows, and across a checkpoint restore."""
        capture = _busy_capture(3, 20_000)
        config = WindowConfig(window_s=0.3, slide_s=slide_s)

        def manager():
            return WindowManager(
                lambda: StreamingSignatureBuilder(PARAMETER, min_observations=MIN_OBS),
                config,
            )

        windows = manager()
        closed = []
        chunks = _interned_chunks(capture, 1500)
        for number, chunk in enumerate(chunks):
            if restore and number == len(chunks) // 2:
                resumed = manager()
                resumed.restore_state(json.loads(json.dumps(windows.export_state())))
                windows = resumed
            closed += [item[1] for item in windows.update_table(chunk) if item[0] == "closed"]
        closed += windows.flush()
        assert len(closed) >= 10
        for window in closed:
            batch = capture.slice_us(window.start_us, window.end_us).active_senders()
            assert window.senders == batch
            assert all(device in window.senders for device in batch)

    def test_live_reference_updates_between_windows(self, reference_setup):
        """Database add/remove mid-stream: the next window matches
        against the rebuilt pack."""
        _, database, split = reference_setup
        table = split.validation.table()
        sink = CollectingSink()
        engine = make_engine(database, sinks=[sink])
        midpoint = len(table) // 2
        for chunk in replay_chunk_source(table.slice_rows(0, midpoint), 1000):
            engine.process_chunk(chunk)
        retired = engine.matcher.database.devices[0]
        assert engine.matcher.database.remove(retired) is True
        assert engine.matcher.database.remove(retired) is False  # no-op on miss
        seen_before_forget = len(sink.of_type(DeviceMatched))
        engine.run_chunked(
            replay_chunk_source(table.slice_rows(midpoint, len(table)), 1000)
        )
        late = sink.of_type(DeviceMatched)[seen_before_forget:]
        assert late  # the stream kept matching after the removal
        assert all(m.best_device != retired for m in late)
        # Re-learning the device registers it again.
        signature = database.get(database.devices[0])
        engine.matcher.database.add(retired, signature)
        assert retired in engine.matcher.database

    def test_jsonl_sink_round_trips(self, reference_setup):
        _, database, split = reference_setup
        buffer = io.StringIO()
        make_engine(database, sinks=[JsonLinesSink(buffer)]).run_chunked(
            replay_chunk_source(split.validation.table().slice_rows(0, 3000))
        )
        lines = [json.loads(line) for line in buffer.getvalue().splitlines()]
        assert lines
        assert all("event" in payload for payload in lines)
        closed = [p for p in lines if p["event"] == "WindowClosed"]
        assert closed and all("candidate_count" in p for p in closed)

    def test_jsonl_sink_flushes_every_event_by_default(self):
        flushes = []

        class SpyStream(io.StringIO):
            def flush(self) -> None:
                flushes.append(self.getvalue().count("\n"))
                super().flush()

        sink = JsonLinesSink(SpyStream())
        for i in range(3):
            sink(WindowClosed(float(i), i, 0.0, 1.0, 0, 0, 0))
        # Default flush_every=1: every written line reaches the stream
        # immediately (a tailing process or crash sees all of them).
        assert flushes == [1, 2, 3]

    def test_jsonl_sink_flush_every_batches(self):
        flushes = []

        class SpyStream(io.StringIO):
            def flush(self) -> None:
                flushes.append(self.getvalue().count("\n"))
                super().flush()

        with JsonLinesSink(SpyStream(), flush_every=3) as sink:
            for i in range(7):
                sink(WindowClosed(float(i), i, 0.0, 1.0, 0, 0, 0))
        # Two batched flushes, then the context exit drains the tail.
        assert flushes == [3, 6, 7]

    def test_jsonl_sink_open_owns_and_closes_file(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonLinesSink.open(path, flush_every=100) as sink:
            sink(WindowClosed(0.0, 0, 0.0, 1.0, 5, 2, 3))
            stream = sink._stream
        assert stream.closed
        (line,) = path.read_text().splitlines()
        assert json.loads(line)["event"] == "WindowClosed"

    def test_jsonl_sink_rejects_negative_flush_every(self):
        with pytest.raises(ValueError):
            JsonLinesSink(io.StringIO(), flush_every=-1)


class TestApplicationAdapters:
    def test_spoof_guard_matches_batch_detector(self, reference_setup):
        """Per-window streaming verdicts == batch check_window verdicts."""
        from repro.applications.spoof_detector import SpoofDetector

        _, _, split = reference_setup
        detector = SpoofDetector(min_observations=MIN_OBS)
        detector.learn(split.training.table(), set(split.training.senders()))
        sink = CollectingSink()
        engine = StreamEngine(
            lambda: StreamingSignatureBuilder(PARAMETER, min_observations=MIN_OBS),
            database=detector.database,
            window=WindowConfig(window_s=WINDOW_S),
            analyzers=[OnlineSpoofGuard(detector)],
            sinks=[sink],
        )
        engine.run_chunked(replay_chunk_source(split.validation.table()))
        streamed = {
            (alert.window_index, alert.device): alert.verdict
            for alert in sink.of_type(SpoofAlert)
        }
        expected = {}
        for index, window in enumerate(split.validation.windows(WINDOW_S)):
            for check in detector.check_window(window.table()):
                if check.verdict.value in ("spoofed", "unknown"):
                    expected[(index, check.device)] = check.verdict.value
        assert streamed == expected

    def test_live_tracker_matches_batch_tracker(self, reference_setup):
        import random

        from repro.applications.attacks import spoof_mac
        from repro.applications.tracker import DeviceTracker

        _, _, split = reference_setup
        tracker = DeviceTracker(min_observations=MIN_OBS, link_threshold=0.3)
        assert tracker.learn(split.training.table()) >= 2
        device = tracker.database.devices[0]
        pseudonym = device.randomized(random.Random(3))
        observed = FrameTable.from_frames(
            spoof_mac(split.validation.frames, device, pseudonym)
        )

        sink = CollectingSink()
        engine = StreamEngine(
            lambda: StreamingSignatureBuilder(PARAMETER, min_observations=MIN_OBS),
            database=tracker.database,
            window=WindowConfig(window_s=WINDOW_S),
            analyzers=[LiveTracker(tracker)],
            sinks=[sink],
        )
        engine.run_chunked(replay_chunk_source(observed))
        events = sink.of_type(PseudonymLinked)
        assert events
        report = tracker.track(observed.windows(WINDOW_S))
        expected = {
            (link.window_index, link.pseudonym): (link.linked_device, link.similarity)
            for link in report.links
        }
        streamed = {
            (event.window_index, event.pseudonym): (
                event.linked_device,
                event.similarity,
            )
            for event in events
        }
        assert set(streamed) == set(expected)
        for key, (linked, similarity) in expected.items():
            assert streamed[key][0] == linked
            assert streamed[key][1] == pytest.approx(similarity, abs=1e-9)

    def test_window_guards_run_on_chunks_without_frames(self, reference_setup):
        """A table is columns only, so the window guards raise the same
        events on wire-decoded chunks as on chunks interned from
        frames."""
        import random

        from repro.applications.attacks import spoof_mac
        from repro.applications.spoof_detector import SpoofDetector
        from repro.applications.tracker import DeviceTracker

        _, _, split = reference_setup
        detector = SpoofDetector(min_observations=MIN_OBS)
        detector.learn(split.training.table(), set(split.training.senders()))
        tracker = DeviceTracker(min_observations=MIN_OBS, link_threshold=0.3)
        tracker.learn(split.training.table())
        device = tracker.database.devices[0]
        observed = spoof_mac(
            split.validation.frames, device, device.randomized(random.Random(3))
        )
        with_frames = list(table_chunks(observed, 4096))
        decoded = [wire_round_trip(chunk) for chunk in with_frames]

        def events_of(chunks):
            sink = CollectingSink()
            StreamEngine(
                lambda: StreamingSignatureBuilder(PARAMETER, min_observations=MIN_OBS),
                database=detector.database,
                window=WindowConfig(window_s=WINDOW_S),
                analyzers=[OnlineSpoofGuard(detector), LiveTracker(tracker)],
                sinks=[sink],
            ).run_chunked(chunks)
            return sink.events

        expected = events_of(with_frames)
        assert any(isinstance(event, SpoofAlert) for event in expected)
        assert any(isinstance(event, PseudonymLinked) for event in expected)
        assert events_of(decoded) == expected

    @pytest.mark.parametrize("engine_database", ["none", "empty", "other"])
    @pytest.mark.parametrize("guard", ["spoof", "tracker"])
    def test_guards_refuse_rows_of_another_database(
        self, reference_setup, engine_database, guard
    ):
        """The guards read the engine's rows, so an engine that matched
        against another database, or none, raises instead of giving
        verdicts off the wrong rows."""
        from repro.applications.spoof_detector import SpoofDetector
        from repro.applications.tracker import DeviceTracker

        _, database, split = reference_setup
        other = None if engine_database == "none" else ReferenceDatabase()
        if engine_database == "other":
            first = database.devices[0]
            other.add(first, database.get(first))
        if guard == "spoof":
            detector = SpoofDetector(min_observations=MIN_OBS, database=database)
            analyzer = OnlineSpoofGuard(detector)
        else:
            tracker = DeviceTracker(min_observations=MIN_OBS, database=database)
            analyzer = LiveTracker(tracker)
        engine = make_engine(other, analyzers=[analyzer])
        with pytest.raises(ValueError, match="not matched against this database"):
            engine.run_chunked(replay_chunk_source(split.validation.table()))

    def test_empty_database_leaves_every_pseudonym_unlinked(self, reference_setup):
        """An empty reference database matches nothing: the live tracker
        still reports each pseudonym, unlinked at 0.0, as the batch
        tracker does."""
        import random

        from repro.applications.attacks import spoof_mac
        from repro.applications.tracker import DeviceTracker

        _, database, split = reference_setup
        device = database.devices[0]
        pseudonym = device.randomized(random.Random(3))
        observed = FrameTable.from_frames(
            spoof_mac(split.validation.frames, device, pseudonym)
        )
        tracker = DeviceTracker(min_observations=MIN_OBS)
        expected = [
            (link.window_index, link.pseudonym, None, 0.0)
            for link in tracker.track(observed.windows(WINDOW_S)).links
        ]
        assert expected
        for engine_database in (None, tracker.database):
            sink = CollectingSink()
            make_engine(
                engine_database, analyzers=[LiveTracker(tracker)], sinks=[sink]
            ).run_chunked(replay_chunk_source(observed))
            links = sink.of_type(PseudonymLinked)
            assert [
                (link.window_index, link.pseudonym, link.linked_device, link.similarity)
                for link in links
            ] == expected

    def test_rogue_ap_guard_alerts_on_impostor(self, reference_setup):
        from repro.applications.attacks import spoof_mac
        from repro.applications.rogue_ap import RogueApDetector
        from repro.core.parameters import FrameSize
        from repro.simulator import CbrTraffic, Scenario, StationSpec, WebTraffic

        def run_ap(profile: str, seed: int, beacon_size: int):
            scenario = Scenario(
                duration_s=90.0, seed=seed, ap_profile=profile, ap_beacon_size=beacon_size
            )
            scenario.add_station(
                StationSpec(
                    name="client",
                    profile="intel-2200bg-linux",
                    sources=[CbrTraffic(interval_ms=4), WebTraffic(mean_think_s=1.5)],
                )
            )
            return scenario.run()

        genuine = run_ap("atheros-ar9285-ath9k", seed=31, beacon_size=180)
        rogue = run_ap("broadcom-4318-win", seed=32, beacon_size=212)
        ap = next(m for m, n in genuine.station_names.items() if n == "ap-0")
        rogue_ap = next(m for m, n in rogue.station_names.items() if n == "ap-0")

        detector = RogueApDetector(parameter=FrameSize(), min_observations=MIN_OBS)
        assert detector.learn(genuine.table(), ap)

        def alerts_for(table, chunk_frames=4096, wire=False):
            sink = CollectingSink()
            engine = StreamEngine(
                lambda: StreamingSignatureBuilder(FrameSize(), min_observations=MIN_OBS),
                window=WindowConfig(window_s=30.0),
                analyzers=[OnlineRogueApGuard(detector, ap)],
                sinks=[sink],
            )
            chunks = replay_chunk_source(table, chunk_frames)
            if wire:
                chunks = [wire_round_trip(chunk) for chunk in chunks]
            engine.run_chunked(chunks)
            return sink.of_type(RogueApAlert)

        assert alerts_for(genuine.table()) == []
        assert alerts_for(genuine.table(), wire=True) == []
        impersonated = FrameTable.from_frames(spoof_mac(rogue.captures, rogue_ap, ap))
        rogue_alerts = alerts_for(impersonated)
        assert rogue_alerts
        assert all(alert.ap == ap for alert in rogue_alerts)
        # The guard's accumulator carries its channel clock across
        # chunks: any chunking raises the same alerts.
        assert alerts_for(impersonated, chunk_frames=333) == rogue_alerts
        # Wire-decoded chunks carry the from-DS bit in their flags, so
        # the guard raises the same alerts on them.
        assert alerts_for(impersonated, wire=True) == rogue_alerts
        assert alerts_for(impersonated, chunk_frames=333, wire=True) == rogue_alerts

    def test_rogue_guard_window_boundaries_match_batch(self):
        """A frame at a window's end belongs to the *next* guard span.

        Regression test: the engine must close windows (resetting the
        guard's accumulator) before the guard sees the boundary frame,
        or per-window observation counts drift from the batch truth.
        """
        from repro.applications.rogue_ap import RogueApDetector
        from repro.core.parameters import FrameSize
        from repro.dot11.frames import Dot11Frame, FrameSubtype
        from repro.dot11.mac import MacAddress
        from repro.traces.trace import Trace

        ap = MacAddress.parse("00:0f:b5:00:00:01")

        def beacon(t_s: float):
            from repro.dot11.capture import CapturedFrame

            return CapturedFrame(
                timestamp_us=t_s * 1e6,
                frame=Dot11Frame(subtype=FrameSubtype.BEACON, size=180, addr2=ap, addr3=ap),
                rate_mbps=1.0,
            )

        def forwarded(t_s: float):
            from repro.dot11.capture import CapturedFrame

            client = MacAddress.parse("00:13:e8:00:00:02")
            return CapturedFrame(
                timestamp_us=t_s * 1e6,
                frame=Dot11Frame(
                    subtype=FrameSubtype.DATA,
                    size=900,
                    addr1=client,
                    addr2=ap,
                    addr3=client,
                    from_ds=True,
                ),
                rate_mbps=54.0,
            )

        beacons = [beacon(t) for t in (0.0, 0.2, 0.4, 0.6, 1.0, 1.2)]
        detector = RogueApDetector(parameter=FrameSize(), min_observations=1)
        detector.learn(FrameTable.from_frames(beacons), ap)
        # Payloads the AP forwards are not its own behaviour: they must
        # not reach the guard's accumulator.
        frames = sorted(
            beacons + [forwarded(t) for t in (0.1, 0.5, 1.1)],
            key=lambda frame: frame.timestamp_us,
        )
        detector.accept_threshold = 1.01  # force an alert per window

        expected = [
            len(oracles.ap_own_frames(window.frames, ap))
            for window in Trace.from_frames(frames).windows(1.0)
        ]
        table = FrameTable.from_frames(frames)
        for chunk_frames in (1, 4, 5, 6):
            for wire in (False, True):
                sink = CollectingSink()
                engine = StreamEngine(
                    lambda: StreamingSignatureBuilder(FrameSize(), min_observations=1),
                    window=WindowConfig(window_s=1.0),
                    analyzers=[OnlineRogueApGuard(detector, ap)],
                    sinks=[sink],
                )
                chunks = replay_chunk_source(table, chunk_frames)
                if wire:
                    chunks = [wire_round_trip(chunk) for chunk in chunks]
                engine.run_chunked(chunks)
                streamed = [a.observations for a in sink.of_type(RogueApAlert)]
                assert streamed == expected == [4, 2], (chunk_frames, wire)

