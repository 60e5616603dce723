"""Edge-case tests for station DCF state handling."""

from __future__ import annotations

import random

import pytest

from repro.dot11.frames import FrameSubtype
from repro.dot11.mac import MacAddress
from repro.dot11.timing import TIMING_BG_MIXED
from repro.simulator.capture import CaptureBuffer
from repro.simulator.channel import ChannelModel, Mobility, Position
from repro.simulator.device import Station
from repro.simulator.profiles import profile_by_name
from repro.simulator.traffic import AppFrame


def _station(profile: str = "intel-2200bg-linux", lossy: bool = False,
             seed: int = 1) -> Station:
    channel = (
        ChannelModel(noiseless=True)
        if not lossy
        # A hopeless link: everything fails.
        else ChannelModel(tx_power_dbm=-50.0, shadowing_sigma_db=0.0)
    )
    station = Station(
        mac=MacAddress.parse("00:13:e8:00:00:01"),
        profile=profile_by_name(profile),
        channel_model=channel,
        network_timing=TIMING_BG_MIXED,
        rng=random.Random(seed),
        mobility=Mobility(speed_mps=0.0, _position=Position(3, 3)),
        bssid=MacAddress.parse("00:0f:b5:0a:00:00"),
    )
    station.peer_position = Position(30, 30) if lossy else Position(4, 4)
    return station


class TestRetryHandling:
    def test_failed_exchange_keeps_frame_queued(self):
        station = _station(lossy=True)
        station.enqueue(AppFrame(subtype=FrameSubtype.QOS_DATA, size=500))
        outcome = station.execute_exchange(10_000.0, CaptureBuffer())
        assert not outcome.dequeued
        assert station.retry_count == 1
        assert station.queue  # still pending

    def test_retry_bit_set_on_retransmission(self):
        station = _station(lossy=True)
        station.enqueue(AppFrame(subtype=FrameSubtype.QOS_DATA, size=500))
        station.execute_exchange(10_000.0, CaptureBuffer())
        capture = CaptureBuffer()
        station.execute_exchange(50_000.0, capture)
        data = [c for c in capture.finish().frames() if c.frame.is_data]
        if data:  # capture to the monitor may itself be lossy
            assert data[0].frame.retry

    def test_drop_after_retry_limit(self):
        station = _station(lossy=True)
        station.enqueue(AppFrame(subtype=FrameSubtype.QOS_DATA, size=500))
        time = 10_000.0
        for _ in range(station.profile.retry_limit + 1):
            outcome = station.execute_exchange(time, CaptureBuffer())
            time = outcome.busy_until_us + 1000
        assert not station.queue
        assert station.stats.dropped == 1
        assert station.retry_count == 0

    def test_contention_window_grows_with_retries(self):
        station = _station()
        assert station.timing.backoff_window(0) == 15
        assert station.timing.backoff_window(3) == 127


class TestBackoffState:
    def test_consume_elapsed_slots(self):
        station = _station()
        station.enqueue(AppFrame(subtype=FrameSubtype.QOS_DATA, size=500))
        station.backoff_counter = 10
        station.pending_difs_us = 50.0
        # Medium went busy 4 slots (80 µs) after DIFS completed.
        station.consume_elapsed_slots(1000.0 + 50.0 + 80.0, 1000.0)
        assert station.backoff_counter == 6

    def test_consume_never_negative(self):
        station = _station()
        station.enqueue(AppFrame(subtype=FrameSubtype.QOS_DATA, size=500))
        station.backoff_counter = 2
        station.pending_difs_us = 50.0
        station.consume_elapsed_slots(1000.0 + 50.0 + 500.0, 1000.0)
        assert station.backoff_counter == 0

    def test_no_consumption_before_difs(self):
        station = _station()
        station.enqueue(AppFrame(subtype=FrameSubtype.QOS_DATA, size=500))
        station.backoff_counter = 5
        station.pending_difs_us = 50.0
        station.consume_elapsed_slots(1020.0, 1000.0)  # mid-DIFS
        assert station.backoff_counter == 5

    def test_access_time_without_backoff_raises(self):
        station = _station()
        with pytest.raises(RuntimeError):
            station.access_time(0.0)

    def test_exchange_with_empty_queue_raises(self):
        station = _station()
        with pytest.raises(RuntimeError):
            station.execute_exchange(0.0, CaptureBuffer())


class TestQosDowngrade:
    def test_non_qos_card_sends_plain_data(self):
        station = _station(profile="broadcom-4318-win")  # qos_capable=False
        frame = station.materialize(
            AppFrame(subtype=FrameSubtype.QOS_DATA, size=500), retry=False
        )
        assert frame.subtype is FrameSubtype.DATA

    def test_non_qos_card_sends_plain_null(self):
        station = _station(profile="broadcom-4318-win")
        frame = station.materialize(
            AppFrame(subtype=FrameSubtype.QOS_NULL, size=30), retry=False
        )
        assert frame.subtype is FrameSubtype.NULL_FUNCTION

    def test_qos_card_keeps_qos(self):
        station = _station(profile="intel-2200bg-linux")
        frame = station.materialize(
            AppFrame(subtype=FrameSubtype.QOS_DATA, size=500), retry=False
        )
        assert frame.subtype is FrameSubtype.QOS_DATA

    def test_mgmt_frames_unaffected(self):
        station = _station(profile="broadcom-4318-win")
        frame = station.materialize(
            AppFrame(subtype=FrameSubtype.PROBE_REQUEST, size=120,
                     destination="broadcast"),
            retry=False,
        )
        assert frame.subtype is FrameSubtype.PROBE_REQUEST


class TestControlResponseRates:
    def test_ofdm_response_rates(self):
        station = _station()
        assert station.control_response_rate(54.0) == 24.0
        assert station.control_response_rate(18.0) == 12.0
        assert station.control_response_rate(6.0) == 6.0

    def test_dsss_response_rates(self):
        station = _station()
        assert station.control_response_rate(11.0) == 2.0
        assert station.control_response_rate(1.0) == 1.0
