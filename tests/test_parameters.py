"""Unit tests for the five network-parameter extractors.

The Figure 1 example from the paper is encoded as a test: frames
DATA(A), ACK, DATA(A→ null sender), ... with ACK/CTS values dropped but
still advancing the channel clock.  The semantics are checked on the
runtime extractor (``observe_table``); the online streams are checked
against the per-frame oracles of ``tests/oracles.py``.
"""

from __future__ import annotations

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
    """Observations of ``frames`` extracted with ``observe_table`` span
    by span, in spans cycling through ``sizes``, each span handed the
    previous span's last timestamp as its channel clock ``t_{i-1}``
    (which the parameters without memory must ignore)."""
    table = FrameTable.from_frames(frames)
    previous_t = None
    out: list[Observation] = []
    lo, step = 0, 0
    while lo < len(table):
        hi = min(len(table), lo + sizes[step % len(sizes)])
        span = table.slice_rows(lo, hi)
        observed = parameter.observe_table(span, previous_t)
        previous_t = float(span.timestamp_us[-1])
        out.extend(
            Observation(table.senders[s], table.ftype_keys[f], v)
            for s, f, v in zip(
                observed.sender_idx.tolist(),
                observed.ftype_idx.tolist(),
                observed.values.tolist(),
            )
        )
        assert observed.positions.tolist() == sorted(observed.positions.tolist())
        lo, step = hi, step + 1
    return out


class TestOnlineStreams:
    """Span-by-span extraction with a carried clock must match the
    batch extractors in any chunking."""

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
