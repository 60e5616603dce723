"""Unit tests for access-point behaviour."""

from __future__ import annotations

import random

import pytest

from repro.dot11.frames import Dot11Frame, FrameSubtype
from repro.dot11.mac import BROADCAST, MacAddress
from repro.dot11.timing import TIMING_BG_MIXED
from repro.simulator.ap import AccessPoint, BeaconSource
from repro.simulator.capture import CaptureBuffer
from repro.simulator.channel import ChannelModel, Position
from repro.simulator.profiles import profile_by_name


def _make_ap() -> AccessPoint:
    return AccessPoint(
        mac=MacAddress.parse("00:0f:b5:00:00:01"),
        profile=profile_by_name("atheros-ar9285-ath9k"),
        channel_model=ChannelModel(noiseless=True),
        network_timing=TIMING_BG_MIXED,
        rng=random.Random(4),
        position=Position(10, 10),
        beacon_size=200,
    )


def _client_station():
    from repro.simulator.device import Station
    from repro.simulator.channel import Mobility

    return Station(
        mac=MacAddress.parse("00:13:e8:00:00:07"),
        profile=profile_by_name("intel-2200bg-linux"),
        channel_model=ChannelModel(noiseless=True),
        network_timing=TIMING_BG_MIXED,
        rng=random.Random(5),
        mobility=Mobility(speed_mps=0.0, _position=Position(5, 5)),
    )


class TestBeaconSource:
    def test_interval(self):
        source = BeaconSource(beacon_size=200)
        rng = random.Random(1)
        frames, next_time = source.next_burst(0.0, rng)
        assert len(frames) == 1
        assert frames[0].subtype is FrameSubtype.BEACON
        assert frames[0].size == 200
        assert next_time == pytest.approx(102_400.0)

    def test_start_delay_within_interval(self):
        source = BeaconSource()
        rng = random.Random(1)
        for _ in range(20):
            assert 0 <= source.start_delay_us(rng) <= source.interval_us


class TestProbeResponse:
    def test_responds_to_probe_request(self):
        ap = _make_ap()
        client = _client_station()
        probe = Dot11Frame(
            subtype=FrameSubtype.PROBE_REQUEST,
            size=120,
            addr1=BROADCAST,
            addr2=client.mac,
        )
        assert ap.on_frame_aired(client, probe, 1000.0)
        assert ap.queue
        queued = ap.queue[0]
        assert queued.subtype is FrameSubtype.PROBE_RESPONSE
        assert queued.peer == client.mac

    def test_ignores_own_probes(self):
        ap = _make_ap()
        probe = Dot11Frame(
            subtype=FrameSubtype.PROBE_REQUEST,
            size=120,
            addr1=BROADCAST,
            addr2=ap.mac,
        )
        assert not ap.on_frame_aired(ap, probe, 1000.0)

    def test_ignores_data_frames(self):
        ap = _make_ap()
        client = _client_station()
        data = Dot11Frame(
            subtype=FrameSubtype.QOS_DATA, size=500, addr1=ap.mac, addr2=client.mac
        )
        assert not ap.on_frame_aired(client, data, 1000.0)

    def test_probe_response_is_acked_exchange(self):
        ap = _make_ap()
        client = _client_station()
        probe = Dot11Frame(
            subtype=FrameSubtype.PROBE_REQUEST,
            size=120,
            addr1=BROADCAST,
            addr2=client.mac,
        )
        ap.on_frame_aired(client, probe, 1000.0)
        capture = CaptureBuffer()
        ap.execute_exchange(5000.0, capture)
        subtypes = [c.subtype for c in capture.finish().frames()]
        assert FrameSubtype.PROBE_RESPONSE in subtypes
        assert FrameSubtype.ACK in subtypes  # unicast mgmt is acked

    def test_ap_is_its_own_bssid(self):
        ap = _make_ap()
        assert ap.bssid == ap.mac
