"""Unit tests for the five network-parameter extractors.

The Figure 1 example from the paper is encoded as a test: frames
DATA(A), ACK, DATA(A→ null sender), ... with ACK/CTS values dropped but
still advancing the channel clock.  The semantics are checked on the
runtime extractor (``observe_table``); the online streams are checked
against the per-frame oracles of ``tests/oracles.py``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.dot11.capture import CapturedFrame
from repro.dot11.frames import FrameSubtype, ack_frame, cts_frame, rts_frame
from repro.dot11.mac import MacAddress
from repro.core.parameters import (
    ALL_PARAMETERS,
    FrameSize,
    InterArrivalTime,
    MediumAccessTime,
    TransmissionRate,
    TransmissionTime,
    parameter_by_name,
)
from repro.traces.table import FrameTable
from tests import oracles
from tests.conftest import make_data_capture
from tests.oracles import Observation

A = MacAddress.parse("00:13:e8:00:00:0a")
B = MacAddress.parse("00:18:f8:00:00:0b")
C = MacAddress.parse("00:14:a4:00:00:0c")
AP = MacAddress.parse("00:0f:b5:00:00:01")


def observed(parameter, frames) -> list[Observation]:
    """The parameter's runtime observations of ``frames``."""
    table = FrameTable.from_frames(frames)
    batch = parameter.observe_table(table)
    return [
        Observation(table.senders[s], table.ftype_keys[f], v)
        for s, f, v in zip(
            batch.sender_idx.tolist(), batch.ftype_idx.tolist(), batch.values.tolist()
        )
    ]


def figure1_frames() -> list[CapturedFrame]:
    """The paper's Figure 1 sequence: DATA, ACK, DATA, ACK, RTS, CTS."""
    return [
        make_data_capture(1000.0, A, AP, size=540, rate=54.0),
        CapturedFrame(timestamp_us=1100.0, frame=ack_frame(A), rate_mbps=24.0),
        make_data_capture(1400.0, A, AP, size=540, rate=54.0),
        CapturedFrame(timestamp_us=1500.0, frame=ack_frame(A), rate_mbps=24.0),
        CapturedFrame(
            timestamp_us=1800.0, frame=rts_frame(C, AP, 500), rate_mbps=24.0
        ),
        CapturedFrame(timestamp_us=1900.0, frame=cts_frame(C), rate_mbps=24.0),
    ]


class TestSenderAttribution:
    def test_anonymous_frames_yield_nothing(self):
        observations = observed(TransmissionRate(), figure1_frames())
        senders = {o.sender for o in observations}
        assert senders == {A, C}

    def test_observation_count(self):
        # 6 frames, 3 anonymous (2 ACK + 1 CTS) -> 3 attributed.
        observations = observed(FrameSize(), figure1_frames())
        assert len(observations) == 3

    def test_ftype_keys(self):
        observations = observed(TransmissionRate(), figure1_frames())
        keys = {o.ftype_key for o in observations}
        assert keys == {"QoS Data", "RTS"}


class TestInterArrival:
    def test_figure1_intervals(self):
        observations = observed(InterArrivalTime(), figure1_frames())
        by_sender = {}
        for o in observations:
            by_sender.setdefault(o.sender, []).append(o.value)
        # i_2 = t_2 - t_1 (previous frame was the ACK at 1100).
        assert by_sender[A] == [pytest.approx(300.0)]
        # i_4 = t_4 - t_3 for station C's RTS.
        assert by_sender[C] == [pytest.approx(300.0)]

    def test_first_frame_yields_nothing(self):
        frames = [make_data_capture(1000.0, A, AP)]
        assert observed(InterArrivalTime(), frames) == []

    def test_anonymous_frames_advance_clock(self):
        frames = figure1_frames()
        observations = observed(InterArrivalTime(), frames)
        # The DATA at 1400 measures against the ACK at 1100, not the
        # DATA at 1000.
        values = [o.value for o in observations if o.sender == A]
        assert 300.0 in [pytest.approx(v) for v in values] or values == [
            pytest.approx(300.0)
        ]


class TestTransmissionTime:
    def test_value(self):
        frames = [make_data_capture(1000.0, A, AP, size=1500, rate=54.0)]
        observations = observed(TransmissionTime(), frames)
        assert observations[0].value == pytest.approx(1500 * 8 / 54.0)

    def test_rate_dependence(self):
        fast = make_data_capture(1000.0, A, AP, size=1500, rate=54.0)
        slow = make_data_capture(2000.0, A, AP, size=1500, rate=11.0)
        values = [o.value for o in observed(TransmissionTime(), [fast, slow])]
        assert values[1] > values[0]


class TestMediumAccessTime:
    def test_idle_gap(self):
        # Frame ends at 1400, took tt=80 µs, previous ended at 1100:
        # the sender waited (1400-80) - 1100 = 220 µs.
        frames = [
            make_data_capture(1100.0, B, AP, size=540, rate=54.0),
            make_data_capture(1400.0, A, AP, size=540, rate=54.0),
        ]
        observations = observed(MediumAccessTime(), frames)
        tt = 540 * 8 / 54.0
        assert observations[-1].value == pytest.approx(300.0 - tt)

    def test_requires_previous_frame(self):
        frames = [make_data_capture(1000.0, A, AP)]
        assert observed(MediumAccessTime(), frames) == []


class TestRegistry:
    def test_all_parameters_present(self):
        names = [p.name for p in ALL_PARAMETERS]
        assert names == ["rate", "size", "access", "txtime", "interarrival"]

    def test_lookup(self):
        assert parameter_by_name("rate").label == "Transmission rate"

    def test_unknown_rejected(self):
        with pytest.raises(KeyError):
            parameter_by_name("entropy")

    def test_default_bins_constructible(self):
        for parameter in ALL_PARAMETERS:
            bins = parameter.default_bins()
            assert bins.bin_count > 0


class TestRateExtraction:
    def test_values_match_capture(self):
        frames = [
            make_data_capture(1000.0, A, AP, rate=54.0),
            make_data_capture(2000.0, A, AP, rate=5.5),
        ]
        values = [o.value for o in observed(TransmissionRate(), frames)]
        assert values == [54.0, 5.5]

    def test_rate_bins_cover_paper_axis(self):
        bins = TransmissionRate().default_bins()
        rates = np.array([1, 2, 5.5, 11, 12, 18, 24, 36, 48, 54], dtype=np.float64)
        assert (bins.index_many(rates) >= 0).all()


def streamed(parameter, frames, sizes=(1,)) -> list[Observation]:
    """Observations of ``frames`` pushed through the parameter's online
    stream in chunk spans cycling through ``sizes``."""
    table = FrameTable.from_frames(frames)
    stream = parameter.online()
    out: list[Observation] = []
    lo, step = 0, 0
    while lo < len(table):
        hi = min(len(table), lo + sizes[step % len(sizes)])
        pushed = stream.push_table(table, lo, hi)
        out.extend(
            Observation(table.senders[s], table.ftype_keys[f], v)
            for s, f, v in zip(
                pushed.sender_idx.tolist(),
                pushed.ftype_idx.tolist(),
                pushed.values.tolist(),
            )
        )
        assert pushed.positions.tolist() == sorted(pushed.positions.tolist())
        lo, step = hi, step + 1
    return out


class TestOnlineStreams:
    """The online stream must match the batch extractors in any chunking."""

    @pytest.mark.parametrize("clock", [float("nan"), float("inf"), "1000.0", True])
    def test_restore_refuses_a_clock_that_is_not_a_finite_number(self, clock):
        stream = InterArrivalTime().online()
        with pytest.raises(ValueError, match="previous_t is not a finite number"):
            stream.restore_state({"previous_t": clock})

    def test_restore_refuses_a_clock_for_a_parameter_without_memory(self):
        stream = FrameSize().online()
        with pytest.raises(ValueError, match="carries no channel clock"):
            stream.restore_state({"previous_t": 1000.0})
        stream.restore_state({"previous_t": None})
        assert stream.export_state() == {}

    def test_restored_clock_resumes_the_stream(self):
        frames = figure1_frames()
        table = FrameTable.from_frames(frames)
        whole = InterArrivalTime().online().push_table(table, 0, len(table))
        first = InterArrivalTime().online()
        first.push_table(table, 0, 2)
        resumed = InterArrivalTime().online()
        resumed.restore_state(json.loads(json.dumps(first.export_state())))
        assert resumed.previous_t == first.previous_t == table.timestamp_us[1]
        rest = resumed.push_table(table, 2, len(table))
        assert rest.values.tolist() == whole.values[whole.positions >= 2].tolist()

    def test_builtin_streams_match_batch_on_figure1(self):
        frames = figure1_frames()
        for parameter in ALL_PARAMETERS:
            expected = list(oracles.observations(parameter, frames))
            for sizes in ((1,), (2, 3), (len(frames),)):
                assert streamed(parameter, frames, sizes) == expected, parameter.name

    def test_builtin_streams_match_batch_on_simulation(self, small_office_trace):
        frames = small_office_trace.frames
        for parameter in ALL_PARAMETERS:
            assert streamed(parameter, frames, (1, 7, 300)) == list(
                oracles.observations(parameter, frames)
            ), parameter.name

    def test_unattributable_frames_advance_the_clock(self):
        from repro.dot11.frames import ack_frame

        frames = [
            make_data_capture(1000.0, A, AP),
            CapturedFrame(timestamp_us=1200.0, frame=ack_frame(A), rate_mbps=24.0),
            make_data_capture(1500.0, B, AP),
        ]
        (obs,) = streamed(InterArrivalTime(), frames)
        assert obs.sender == B and obs.value == pytest.approx(300.0)
