"""Unit tests for the channel model and mobility."""

from __future__ import annotations

import random

import pytest

from repro.simulator.channel import (
    RATE_SNR_THRESHOLD_DB,
    ChannelModel,
    Mobility,
    Position,
)


class TestPosition:
    def test_distance(self):
        assert Position(0, 0).distance_to(Position(3, 4)) == pytest.approx(5.0)

    def test_distance_floor(self):
        assert Position(1, 1).distance_to(Position(1, 1)) == pytest.approx(0.5)


class TestSnr:
    def test_snr_decreases_with_distance(self):
        channel = ChannelModel(shadowing_sigma_db=0.0)
        rng = random.Random(1)
        near = channel.snr_db(channel.received_dbm(2.0), rng)
        far = channel.snr_db(channel.received_dbm(40.0), rng)
        assert near > far

    def test_shadowing_variation(self):
        channel = ChannelModel(shadowing_sigma_db=4.0)
        rng = random.Random(1)
        received = channel.received_dbm(10.0)
        values = {round(channel.snr_db(received, rng), 3) for _ in range(20)}
        assert len(values) > 10


class TestSuccessProbability:
    def test_monotone_in_snr(self):
        channel = ChannelModel()
        low = channel.success_probability(10.0, 54.0, 1500)
        high = channel.success_probability(40.0, 54.0, 1500)
        assert high > low

    def test_lower_rate_more_robust(self):
        channel = ChannelModel()
        snr = 10.0
        assert channel.success_probability(snr, 6.0, 1500) > channel.success_probability(
            snr, 54.0, 1500
        )

    def test_longer_frames_fail_more(self):
        channel = ChannelModel()
        snr = RATE_SNR_THRESHOLD_DB[54.0]  # borderline link
        assert channel.success_probability(snr, 54.0, 100) > channel.success_probability(
            snr, 54.0, 2000
        )

    def test_noiseless_channel_always_succeeds(self):
        channel = ChannelModel(noiseless=True)
        rng = random.Random(1)
        received = channel.received_dbm(100.0)
        assert all(
            channel.frame_succeeds(received, 54.0, 2000, rng) for _ in range(100)
        )
        assert all(
            channel.monitor_captures(received, 54.0, 2000, rng) for _ in range(100)
        )

    def test_every_rate_has_threshold(self):
        from repro.dot11.phy import ALL_RATES

        for rate in ALL_RATES:
            assert rate in RATE_SNR_THRESHOLD_DB


class TestBestRate:
    def test_high_snr_gets_top_rate(self):
        channel = ChannelModel()
        rates = (1.0, 2.0, 5.5, 11.0, 12.0, 24.0, 54.0)
        assert channel.best_rate_for_snr(60.0, rates) == 54.0

    def test_low_snr_gets_bottom_rate(self):
        channel = ChannelModel()
        rates = (1.0, 2.0, 5.5, 11.0, 12.0, 24.0, 54.0)
        assert channel.best_rate_for_snr(-5.0, rates) == 1.0

    def test_mid_snr_intermediate(self):
        channel = ChannelModel()
        rates = (1.0, 11.0, 24.0, 54.0)
        # 54 needs 24+2 dB, 24 needs 14+2: at 18 dB the best is 24.
        assert channel.best_rate_for_snr(18.0, rates) == 24.0
        # At 12 dB only 11 Mbps (8+2) still clears the margin.
        assert channel.best_rate_for_snr(12.0, rates) == 11.0


class TestMobility:
    def test_static_station_stays_put(self):
        mobility = Mobility(speed_mps=0.0, _position=Position(5, 5))
        rng = random.Random(2)
        first = mobility.position_at(0.0, rng)
        later = mobility.position_at(1e9, rng)
        assert (later.x, later.y) == (first.x, first.y)

    def test_moving_station_moves(self):
        mobility = Mobility(area_m=50.0, speed_mps=2.0, pause_s=0.0,
                            _position=Position(0, 0))
        rng = random.Random(2)
        start = mobility.position_at(0.0, rng)
        start_xy = (start.x, start.y)
        end = mobility.position_at(60e6, rng)  # one minute
        assert (end.x, end.y) != start_xy

    def test_stays_in_area(self):
        mobility = Mobility(area_m=20.0, speed_mps=3.0, pause_s=1.0,
                            _position=Position(10, 10))
        rng = random.Random(7)
        for step in range(1, 200):
            position = mobility.position_at(step * 5e6, rng)
            assert -0.01 <= position.x <= 20.01
            assert -0.01 <= position.y <= 20.01

    def test_time_never_goes_backwards(self):
        mobility = Mobility(area_m=20.0, speed_mps=1.0, _position=Position(0, 0))
        rng = random.Random(3)
        mobility.position_at(50e6, rng)
        # Queries at earlier times return the latest state, not crash.
        position = mobility.position_at(10e6, rng)
        assert position is not None
