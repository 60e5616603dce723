"""Unit tests for the Trace container, splitting and windowing."""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.dot11.capture import CapturedFrame
from repro.dot11.mac import MacAddress
from repro.radiotap.pcap import read_trace_pcap, write_trace_pcap
from repro.traces.filters import (
    broadcast_data_only,
    data_frames_only,
    first_transmissions_only,
    null_function_only,
    sent_at_rate,
)
from repro.simulator import CbrTraffic, Scenario, StationSpec
from repro.streaming import WindowConfig
from repro.traces.table import FrameTable, window_bounds
from repro.traces.trace import Trace
from repro.dot11.frames import FrameSubtype
from tests.conftest import make_data_capture

A = MacAddress.parse("00:13:e8:00:00:0a")
B = MacAddress.parse("00:18:f8:00:00:0b")
AP = MacAddress.parse("00:0f:b5:00:00:01")


def _trace(count: int = 100, gap_us: float = 1e5) -> Trace:
    frames = [make_data_capture(i * gap_us, A if i % 2 else B, AP) for i in range(count)]
    return Trace.from_frames(frames, name="unit")


class TestContainer:
    def test_ordering_enforced(self):
        frames = [make_data_capture(100.0, A, AP), make_data_capture(50.0, A, AP)]
        with pytest.raises(ValueError):
            Trace.from_frames(frames)

    def test_duration(self):
        trace = _trace(11, gap_us=1e6)
        assert trace.duration_s == pytest.approx(10.0)

    def test_empty_trace(self):
        trace = Trace.from_frames([])
        assert len(trace) == 0
        assert trace.duration_s == 0.0
        assert trace.senders() == set()

    def test_senders(self):
        assert _trace().senders() == {A, B}


class TestSlicing:
    def test_slice_bounds(self):
        trace = _trace(100, gap_us=1e4)
        window = trace.slice_us(2e5, 5e5)
        assert all(2e5 <= c.timestamp_us < 5e5 for c in window.frames)

    def test_split_ratios(self):
        trace = _trace(100, gap_us=1e6)  # 99 s
        split = trace.split(training_s=20.0)
        assert len(split.training) == 20
        assert len(split.validation) == 80

    def test_split_validation_starts_after_training(self):
        split = _trace(100, gap_us=1e6).split(training_s=30.0)
        assert split.training.end_us < split.validation.start_us

    def test_split_requires_positive(self):
        with pytest.raises(ValueError):
            _trace().split(0.0)

    def test_windows_cover_trace(self):
        trace = _trace(100, gap_us=1e6)
        windows = list(trace.windows(window_s=25.0))
        assert sum(len(w) for w in windows) == len(trace)
        assert len(windows) == 4

    def test_window_size_validation(self):
        with pytest.raises(ValueError):
            list(_trace().windows(0.0))

    def test_no_trailing_degenerate_window_on_exact_boundary(self):
        """Regression: a last frame exactly on a window boundary joins
        the final window instead of spawning an extra one-frame window
        beyond the trace span."""
        frames = [make_data_capture(t, A, AP) for t in (0.0, 50.0, 100.0)]
        trace = Trace.from_frames(frames)
        windows = list(trace.windows(window_s=100 / 1e6))  # span == 1 window
        assert [len(w) for w in windows] == [3]

        windows = list(trace.windows(window_s=50 / 1e6))  # span == 2 windows
        assert [len(w) for w in windows] == [1, 2]
        assert sum(len(w) for w in windows) == len(trace)

    def test_windows_final_window_is_right_closed_only(self):
        # A non-boundary tail behaves exactly as before.
        frames = [make_data_capture(t, A, AP) for t in (0.0, 50.0, 120.0)]
        windows = list(Trace.from_frames(frames).windows(window_s=50 / 1e6))
        assert [len(w) for w in windows] == [1, 1, 1]

    def test_windows_on_empty_trace(self):
        assert [len(w) for w in Trace.from_frames([]).windows(1.0)] == [0]

    def test_slice_shares_cached_stamps(self):
        trace = _trace(50, gap_us=1e4)
        window = trace.slice_us(1e5, 3e5)
        # The slice's table columns are views of the parent's, and its
        # frames are the parent's frames over the same rows.
        parent = trace.table()
        for column in ("timestamp_us", "size", "sender_idx", "flags"):
            assert getattr(window.table(), column).base is getattr(parent, column)
        assert window.table().senders is parent.senders
        assert window.frames == trace.frames[10:30]
        assert window.slice_us(1e5, 2e5).start_us >= 1e5


def _one_station(duration_s: float) -> Scenario:
    scenario = Scenario(duration_s=duration_s)
    scenario.add_station(
        StationSpec("a", "intel-2200bg-linux", sources=[CbrTraffic(interval_ms=50)])
    )
    return scenario


NAN = float("nan")


@pytest.mark.parametrize(
    "refuse",
    [
        # One next() call: a regression yields windows instead of hanging.
        lambda: next(window_bounds(np.array([0.0, 1e6]), NAN)),
        lambda: WindowConfig(window_s=NAN),
        lambda: _trace().split(NAN),
        lambda: _one_station(NAN),
        lambda: next(_one_station(5.0).stream(chunk_s=NAN)),
    ],
    ids=[
        "window_bounds",
        "window_s",
        "split",
        "scenario_duration",
        "stream_chunk",
    ],
)
def test_nan_durations_are_refused(refuse):
    """Every duration check reads ``not x > 0``, which NaN fails."""
    with pytest.raises(ValueError, match="positive"):
        refuse()


class TestPcapRoundTrip:
    def test_to_from_pcap(self, tmp_path):
        trace = _trace(20)
        path = tmp_path / "t.pcap"
        assert trace.to_pcap(path) == 20
        back = Trace.from_pcap(path, name="loaded")
        assert len(back) == 20
        assert back.senders() == {A, B}

    def test_loaded_trace_keeps_no_frames(self, tmp_path):
        """A loaded trace holds only its table; its frames are decoded
        again when read."""

        def live_frames() -> int:
            gc.collect()
            return sum(isinstance(o, CapturedFrame) for o in gc.get_objects())

        path = tmp_path / "t.pcap"
        _trace(500).to_pcap(path)
        before = live_frames()
        loaded = Trace.from_pcap(path)
        assert live_frames() == before
        assert len(loaded.frames) == 500
        assert live_frames() == before + 500

    def test_loaded_trace_writes_what_it_read(self, small_office_trace, tmp_path):
        start = small_office_trace.start_us
        office = small_office_trace.slice_us(start, start + 10e6)
        path = tmp_path / "office.pcap"
        office.to_pcap(path)
        expected = tmp_path / "expected.pcap"
        write_trace_pcap(expected, read_trace_pcap(path))
        again = tmp_path / "again.pcap"
        assert Trace.from_pcap(path).to_pcap(again) == len(office) > 0
        assert again.read_bytes() == expected.read_bytes()


class TestFilters:
    """Each Section VI condition is a row mask over a table."""

    def test_data_only(self):
        data = make_data_capture(0.0, A, AP)
        beacon = make_data_capture(1.0, A, AP, subtype=FrameSubtype.BEACON, size=180)
        table = FrameTable.from_frames([data, beacon])
        assert data_frames_only(table).tolist() == [True, False]

    def test_first_tx_only(self):
        first = make_data_capture(0.0, A, AP)
        retry = make_data_capture(1.0, A, AP, retry=True)
        table = FrameTable.from_frames([first, retry])
        assert first_transmissions_only(table).tolist() == [True, False]

    def test_rate_filter(self):
        fast = make_data_capture(0.0, A, AP, rate=54.0)
        slow = make_data_capture(1.0, A, AP, rate=11.0)
        table = FrameTable.from_frames([fast, slow])
        assert sent_at_rate(table, 54.0).tolist() == [True, False]

    def test_broadcast_data(self):
        from repro.dot11.mac import BROADCAST

        unicast = make_data_capture(0.0, A, AP)
        broadcast = make_data_capture(1.0, A, BROADCAST, size=80)
        table = FrameTable.from_frames([unicast, broadcast])
        assert broadcast_data_only(table).tolist() == [False, True]

    def test_null_function(self):
        null = make_data_capture(0.0, A, AP, subtype=FrameSubtype.NULL_FUNCTION, size=28)
        data = make_data_capture(1.0, A, AP)
        table = FrameTable.from_frames([null, data])
        assert null_function_only(table).tolist() == [True, False]

    def test_conjunction_of_masks(self):
        wanted = make_data_capture(0.0, A, AP, rate=54.0)
        wrong_rate = make_data_capture(1.0, A, AP, rate=11.0)
        retried = make_data_capture(2.0, A, AP, rate=54.0, retry=True)
        table = FrameTable.from_frames([wanted, wrong_rate, retried])
        joint = (
            data_frames_only(table)
            & first_transmissions_only(table)
            & sent_at_rate(table, 54.0)
        )
        assert joint.tolist() == [True, False, False]