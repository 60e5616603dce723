"""Streaming/batch equivalence for the online signature builder.

The tentpole invariant (mirroring ``tests/test_batch_matching.py``):
:class:`StreamingSignatureBuilder` fed columnar chunks must match the
per-frame oracle :func:`tests.oracles.build` bin-for-bin (atol 1e-9) on
the same frames — same devices, same frame types, same histograms,
weights and observation counts — for every network parameter.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.dot11.capture import CapturedFrame
from repro.dot11.frames import FrameSubtype, ack_frame
from repro.dot11.mac import MacAddress, vendor_mac
from repro.core.parameters import ALL_PARAMETERS, FrameSize, InterArrivalTime
from repro.core.signature import SignatureBuilder
from repro.streaming.builder import StreamingSignatureBuilder
from repro.traces.table import FrameTable
from tests import oracles
from tests.conftest import make_data_capture

AP = MacAddress.parse("00:0f:b5:00:00:01")


def random_frames(
    rng: np.random.Generator, count: int = 400, senders: int = 5
) -> list[CapturedFrame]:
    """A synthetic capture: mixed sizes/rates/subtypes, ACK gaps."""
    population = [vendor_mac("00:13:e8", i + 1) for i in range(senders)]
    rates = (1.0, 2.0, 5.5, 11.0, 12.0, 18.0, 24.0, 36.0, 48.0, 54.0)
    frames: list[CapturedFrame] = []
    t = 1000.0
    for _ in range(count):
        t += float(rng.integers(5, 3000))
        sender = population[int(rng.integers(senders))]
        if rng.random() < 0.2:
            # Unattributable ACK: no observation, advances the clock.
            frames.append(
                CapturedFrame(timestamp_us=t, frame=ack_frame(sender), rate_mbps=24.0)
            )
            continue
        subtype = (
            FrameSubtype.QOS_DATA if rng.random() < 0.7 else FrameSubtype.BEACON
        )
        frames.append(
            make_data_capture(
                t,
                sender,
                AP,
                size=int(rng.integers(60, 2000)),
                rate=float(rates[int(rng.integers(len(rates)))]),
                subtype=subtype,
            )
        )
    return frames


def feed(
    builder: StreamingSignatureBuilder,
    frames: list[CapturedFrame],
    chunk_frames: int = 97,
) -> None:
    """Feed ``frames`` to the builder in ``chunk_frames``-row chunks."""
    table = FrameTable.from_frames(frames)
    for lo in range(0, len(table), chunk_frames):
        builder.update_table(table, lo, min(lo + chunk_frames, len(table)))


def assert_signatures_equal(batch: dict, streamed: dict) -> None:
    assert set(batch) == set(streamed)
    for device, expected in batch.items():
        actual = streamed[device]
        assert expected.frame_types == actual.frame_types
        for ftype in expected.frame_types:
            np.testing.assert_allclose(
                actual.histograms[ftype], expected.histograms[ftype], atol=1e-9
            )
            assert actual.weight(ftype) == pytest.approx(
                expected.weight(ftype), abs=1e-9
            )
        assert actual.observation_counts == expected.observation_counts


class TestBatchEquivalence:
    def test_property_random_streams_match_batch(self):
        """Property sweep: random captures × all five parameters."""
        rng = np.random.default_rng(77)
        for round_index in range(5):
            frames = random_frames(rng, count=300 + 50 * round_index)
            for parameter in ALL_PARAMETERS:
                batch = oracles.build(
                    SignatureBuilder(parameter, min_observations=10), frames
                )
                online = StreamingSignatureBuilder(parameter, min_observations=10)
                feed(online, frames, chunk_frames=1 + 40 * round_index)
                assert_signatures_equal(batch, online.signatures())

    def test_simulated_capture_matches_batch(self, small_office_trace):
        for parameter in ALL_PARAMETERS:
            batch = oracles.build(
                SignatureBuilder(parameter, min_observations=30),
                small_office_trace.frames,
            )
            online = StreamingSignatureBuilder(parameter, min_observations=30)
            feed(online, small_office_trace.frames, chunk_frames=4096)
            assert_signatures_equal(batch, online.signatures())

    def test_gating_matches_batch(self):
        """Devices straddling the min-observation gate agree."""
        rng = np.random.default_rng(78)
        frames = random_frames(rng, count=120, senders=8)
        parameter = InterArrivalTime()
        for gate in (1, 5, 20, 1000):
            batch = oracles.build(
                SignatureBuilder(parameter, min_observations=gate), frames
            )
            online = StreamingSignatureBuilder(parameter, min_observations=gate)
            feed(online, frames)
            assert_signatures_equal(batch, online.signatures())


class TestResidency:
    def test_resident_count(self):
        """Every device with a kept observation stays resident."""
        builder = StreamingSignatureBuilder(InterArrivalTime(), min_observations=1)
        a = vendor_mac("00:13:e8", 1)
        b = vendor_mac("00:13:e8", 2)
        assert builder.resident_count == 0
        feed(
            builder,
            [
                make_data_capture(1000.0, a, AP),
                make_data_capture(1500.0, a, AP),
                make_data_capture(2000.0, b, AP),
            ],
        )
        assert builder.resident_count == 2
        feed(builder, [make_data_capture(2500.0, a, AP)])
        assert builder.resident_count == 2

    def test_min_observations_validated(self):
        with pytest.raises(ValueError):
            StreamingSignatureBuilder(InterArrivalTime(), min_observations=0)


class TestChannelClock:
    """The builder carries the channel clock ``t_{i-1}`` from span to
    span and through its checkpoint payload."""

    @pytest.mark.parametrize(
        "clock",
        [
            float("nan"),
            float("inf"),
            "1000.0",
            True,
            pytest.param(10**400, id="int-beyond-float"),
        ],
    )
    def test_restore_refuses_a_clock_that_is_not_a_finite_number(self, clock):
        builder = StreamingSignatureBuilder(InterArrivalTime())
        payload = {**builder.export_state(), "previous_t": clock}
        with pytest.raises(ValueError, match="previous_t is not a finite number"):
            builder.restore_state(payload)

    def test_restore_refuses_a_clock_for_a_parameter_without_memory(self):
        builder = StreamingSignatureBuilder(FrameSize())
        payload = builder.export_state()
        with pytest.raises(ValueError, match="carries no channel clock"):
            builder.restore_state({**payload, "previous_t": 1000.0})
        builder.restore_state(payload)
        assert builder.export_state()["previous_t"] is None

    def test_restored_clock_resumes_the_stream(self):
        """Row 2 is observed against the restored clock (row 1's ACK),
        so the resumed builder ends where an uninterrupted one does, and
        one resumed without the clock does not."""
        from tests.test_parameters import figure1_frames

        table = FrameTable.from_frames(figure1_frames())

        def builder() -> StreamingSignatureBuilder:
            return StreamingSignatureBuilder(InterArrivalTime(), min_observations=1)

        whole = builder()
        whole.update_table(table)
        first = builder()
        first.update_table(table, 0, 2)
        payload = json.loads(json.dumps(first.export_state()))
        assert payload["previous_t"] == table.timestamp_us[1]
        resumed, cold = builder(), builder()
        resumed.restore_state(payload)
        cold.restore_state({**payload, "previous_t": None})
        for other in (resumed, cold):
            other.update_table(table, 2, len(table))
        assert resumed.channel_clock_us == whole.channel_clock_us
        assert resumed.export_state() == whole.export_state()
        assert cold.export_state() != whole.export_state()
