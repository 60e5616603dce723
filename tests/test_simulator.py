"""Integration tests for stations, the medium and scenarios."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.dot11.frames import FrameSubtype
from repro.dot11.mac import MacAddress
from repro.dot11.timing import TIMING_BG_MIXED
from repro.simulator import (
    CbrTraffic,
    ChannelModel,
    Scenario,
    StationSpec,
    WebTraffic,
)
from repro.simulator.capture import CaptureBuffer
from repro.simulator.channel import Mobility, Position
from repro.simulator.device import ExchangeOutcome, Station
from repro.simulator.events import EventQueue
from repro.simulator.medium import Medium
from repro.simulator.profiles import profile_by_name
from repro.simulator.traffic import AppFrame


def _make_station(
    seed: int = 1,
    profile: str = "intel-2200bg-linux",
    mac: str = "00:13:e8:00:00:01",
) -> Station:
    return Station(
        mac=MacAddress.parse(mac),
        profile=profile_by_name(profile),
        channel_model=ChannelModel(noiseless=True),
        network_timing=TIMING_BG_MIXED,
        rng=random.Random(seed),
        mobility=Mobility(speed_mps=0.0, _position=Position(3, 3)),
        bssid=MacAddress.parse("00:0f:b5:0a:00:00"),
    )


def _exchange(station: Station, time_us: float) -> tuple[ExchangeOutcome, list]:
    """Run one exchange; return its outcome and the frames it captured."""
    capture = CaptureBuffer()
    outcome = station.execute_exchange(time_us, capture)
    return outcome, capture.finish().frames()


class TestStation:
    def test_enqueue_signals_contention_once(self):
        station = _make_station()
        first = station.enqueue(AppFrame(subtype=FrameSubtype.QOS_DATA, size=500))
        second = station.enqueue(AppFrame(subtype=FrameSubtype.QOS_DATA, size=500))
        assert first and not second
        assert station.wants_medium

    def test_access_time_includes_difs_and_backoff(self):
        station = _make_station()
        station.enqueue(AppFrame(subtype=FrameSubtype.QOS_DATA, size=500))
        access = station.access_time(1000.0)
        assert access >= 1000.0 + 1.0
        assert station.backoff_counter is not None

    def test_exchange_produces_data_and_ack(self):
        station = _make_station()
        station.enqueue(AppFrame(subtype=FrameSubtype.QOS_DATA, size=500))
        outcome, captured = _exchange(station, 10_000.0)
        assert outcome.dequeued
        subtypes = [c.subtype for c in captured]
        assert FrameSubtype.QOS_DATA in subtypes
        assert FrameSubtype.ACK in subtypes
        assert outcome.busy_until_us > 10_000.0

    def test_broadcast_has_no_ack(self):
        station = _make_station()
        station.enqueue(
            AppFrame(subtype=FrameSubtype.DATA, size=200, destination="broadcast")
        )
        outcome, captured = _exchange(station, 10_000.0)
        subtypes = [c.subtype for c in captured]
        assert FrameSubtype.ACK not in subtypes

    def test_rts_used_above_threshold(self):
        station = _make_station(profile="atheros-ar9285-ath9k")  # RTS at 2000
        station.enqueue(AppFrame(subtype=FrameSubtype.QOS_DATA, size=2100))
        outcome, captured = _exchange(station, 10_000.0)
        subtypes = [c.subtype for c in captured]
        assert FrameSubtype.RTS in subtypes
        assert FrameSubtype.CTS in subtypes

    def test_no_rts_below_threshold(self):
        station = _make_station(profile="atheros-ar9285-ath9k")
        station.enqueue(AppFrame(subtype=FrameSubtype.QOS_DATA, size=500))
        outcome, captured = _exchange(station, 10_000.0)
        assert FrameSubtype.RTS not in [c.subtype for c in captured]

    def test_monotone_capture_times_within_exchange(self):
        station = _make_station()
        station.enqueue(AppFrame(subtype=FrameSubtype.QOS_DATA, size=2500))
        outcome, captured = _exchange(station, 10_000.0)
        times = [c.timestamp_us for c in captured]
        assert times == sorted(times)

    def test_sequence_numbers_increment(self):
        station = _make_station()
        seqs = []
        for _ in range(3):
            station.enqueue(AppFrame(subtype=FrameSubtype.QOS_DATA, size=500))
        time = 10_000.0
        for _ in range(3):
            outcome, captured = _exchange(station, time)
            data = next(c for c in captured if c.subtype is FrameSubtype.QOS_DATA)
            seqs.append(data.frame.seq)
            time = outcome.busy_until_us + 100
        assert seqs[1] == (seqs[0] + 1) % 4096
        assert seqs[2] == (seqs[1] + 1) % 4096

    def test_encrypted_station_sets_protected(self):
        station = _make_station()
        station.encrypted = True
        station.enqueue(AppFrame(subtype=FrameSubtype.QOS_DATA, size=500))
        outcome, captured = _exchange(station, 10_000.0)
        data = next(c for c in captured if c.subtype is FrameSubtype.QOS_DATA)
        assert data.frame.protected
        assert data.size == 508  # +8 bytes CCMP overhead


class TestMedium:
    def test_two_contenders_serialize(self):
        queue = EventQueue()
        medium = Medium(queue)
        a = _make_station(seed=1)
        b = _make_station(seed=2, mac="00:18:f8:00:00:02")
        for station in (a, b):
            station.enqueue(AppFrame(subtype=FrameSubtype.QOS_DATA, size=800))
            medium.join(station, 0.0)
        queue.run_until(1e6)
        captures = medium.capture.finish().frames()
        senders = {c.sender for c in captures if c.sender is not None}
        assert senders == {a.mac, b.mac}
        # No two data frames overlap in time.
        data = [c for c in captures if c.subtype is FrameSubtype.QOS_DATA]
        assert len(data) == 2

    def test_exchange_counter(self):
        queue = EventQueue()
        medium = Medium(queue)
        station = _make_station()
        for _ in range(5):
            station.enqueue(AppFrame(subtype=FrameSubtype.QOS_DATA, size=400))
        medium.join(station, 0.0)
        queue.run_until(1e6)
        assert medium.exchange_count == 5
        assert not station.wants_medium


class TestScenario:
    def test_deterministic_runs(self):
        def run() -> list[float]:
            scenario = Scenario(duration_s=10.0, seed=77)
            scenario.add_station(
                StationSpec(
                    name="a",
                    profile="intel-2200bg-linux",
                    sources=[CbrTraffic(interval_ms=40)],
                )
            )
            return [c.timestamp_us for c in scenario.run().captures]

        assert run() == run()

    def test_seed_changes_output(self):
        def run(seed: int) -> int:
            scenario = Scenario(duration_s=10.0, seed=seed)
            scenario.add_station(
                StationSpec(
                    name="a",
                    profile="intel-2200bg-linux",
                    sources=[CbrTraffic(interval_ms=40)],
                )
            )
            return len(scenario.run().captures)

        assert run(1) != run(2) or True  # counts may coincide; spot-check below
        scenario_a = Scenario(duration_s=10.0, seed=1)
        scenario_b = Scenario(duration_s=10.0, seed=2)
        for scenario in (scenario_a, scenario_b):
            scenario.add_station(
                StationSpec(
                    name="a",
                    profile="intel-2200bg-linux",
                    sources=[CbrTraffic(interval_ms=40)],
                )
            )
        times_a = [c.timestamp_us for c in scenario_a.run().captures][:50]
        times_b = [c.timestamp_us for c in scenario_b.run().captures][:50]
        assert times_a != times_b

    def test_ap_emits_beacons(self, small_office_result):
        beacons = [
            c
            for c in small_office_result.captures
            if c.subtype is FrameSubtype.BEACON
        ]
        # 90 s at ~102.4 ms intervals, modulo capture loss.
        assert len(beacons) > 400

    def test_probe_requests_answered(self, small_office_result):
        types = Counter(c.subtype for c in small_office_result.captures)
        assert types[FrameSubtype.PROBE_REQUEST] > 0
        assert types[FrameSubtype.PROBE_RESPONSE] > 0

    def test_station_names_mapped(self, small_office_result):
        names = set(small_office_result.station_names.values())
        assert {"alice", "bob", "carol", "ap-0"} <= names

    def test_departure_stops_traffic(self):
        scenario = Scenario(duration_s=30.0, seed=3)
        scenario.add_station(
            StationSpec(
                name="early-leaver",
                profile="intel-2200bg-linux",
                sources=[CbrTraffic(interval_ms=20)],
                departure_s=10.0,
            )
        )
        result = scenario.run()
        leaver = next(
            mac for mac, name in result.station_names.items() if name == "early-leaver"
        )
        last = max(
            (c.timestamp_us for c in result.captures if c.sender == leaver),
            default=0.0,
        )
        assert last < 11e6

    def test_arrival_delays_traffic(self):
        scenario = Scenario(duration_s=30.0, seed=3)
        scenario.add_station(
            StationSpec(
                name="late-arriver",
                profile="intel-2200bg-linux",
                sources=[CbrTraffic(interval_ms=20)],
                arrival_s=20.0,
            )
        )
        result = scenario.run()
        arriver = next(
            mac for mac, name in result.station_names.items() if name == "late-arriver"
        )
        first = min(
            (c.timestamp_us for c in result.captures if c.sender == arriver),
            default=float("inf"),
        )
        assert first >= 20e6

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            Scenario(duration_s=0.0)
        scenario = Scenario(duration_s=10.0)
        scenario.add_station(
            StationSpec(
                name="bad",
                profile="intel-2200bg-linux",
                arrival_s=5.0,
                departure_s=1.0,
            )
        )
        with pytest.raises(ValueError):
            scenario.run()

    def test_collisions_occur_under_load(self):
        scenario = Scenario(duration_s=10.0, seed=13)
        for index in range(8):
            scenario.add_station(
                StationSpec(
                    name=f"station-{index}",
                    profile="intel-2200bg-linux",
                    sources=[CbrTraffic(interval_ms=5)],
                )
            )
        result = scenario.run()
        assert result.collision_rounds > 0
        assert result.frame_count > 1000
