"""Window semantics of the streaming WindowManager.

Tumbling windows must reproduce :meth:`Trace.windows` boundaries
exactly; sliding windows must keep ``ceil(W/S)`` concurrent spans; and
window indices must stay aligned with the batch enumeration across
empty stretches of the stream.
"""

from __future__ import annotations

import json

import pytest

from repro.dot11.mac import MacAddress, vendor_mac
from repro.core.parameters import FrameSize, InterArrivalTime
from repro.streaming.builder import StreamingSignatureBuilder
from repro.streaming.windows import WindowConfig, WindowManager
from repro.traces.table import FrameTable
from tests.conftest import make_data_capture

AP = MacAddress.parse("00:0f:b5:00:00:01")
A = vendor_mac("00:13:e8", 1)
B = vendor_mac("00:13:e8", 2)


def manager(
    window_s: float = 10.0,
    slide_s: float | None = None,
    min_observations: int = 1,
) -> WindowManager:
    return WindowManager(
        lambda: StreamingSignatureBuilder(FrameSize(), min_observations=min_observations),
        WindowConfig(window_s=window_s, slide_s=slide_s),
    )


def feed(windows: WindowManager, *frames) -> list:
    """Route ``frames`` as one chunk; returns the windows it closed."""
    timeline = windows.update_table(FrameTable.from_frames(list(frames)))
    return [item[1] for item in timeline if item[0] == "closed"]


class TestTumbling:
    def test_windows_align_to_first_frame(self):
        windows = manager(window_s=10.0)
        assert feed(windows, make_data_capture(5_000_000.0, A, AP)) == []
        assert windows.open_windows == 1
        (index, start, end) = next(windows.window_spans())
        assert (index, start, end) == (0, 5_000_000.0, 15_000_000.0)

    def test_frame_at_boundary_closes_the_window_first(self):
        windows = manager(window_s=10.0)
        feed(windows, make_data_capture(0.0, A, AP))
        closed = feed(windows, make_data_capture(10_000_000.0, B, AP))
        assert [w.index for w in closed] == [0]
        assert closed[0].frame_count == 1
        assert closed[0].senders == {A}
        # The boundary frame went into window 1, not window 0.
        (index, start, _end) = next(windows.window_spans())
        assert (index, start) == (1, 10_000_000.0)

    def test_indices_stay_aligned_across_empty_gaps(self):
        windows = manager(window_s=10.0)
        feed(windows, make_data_capture(0.0, A, AP))
        # A 75 s silence: windows 1–6 never open, window 7 catches the frame.
        closed = feed(windows, make_data_capture(75_000_000.0, B, AP))
        assert [w.index for w in closed] == [0]
        (index, start, _end) = next(windows.window_spans())
        assert index == 7 and start == 70_000_000.0

    def test_flush_closes_the_partial_tail(self):
        windows = manager(window_s=10.0)
        feed(windows, make_data_capture(0.0, A, AP))
        feed(windows, make_data_capture(12_000_000.0, B, AP))
        tail = windows.flush()
        assert [w.index for w in tail] == [1]
        assert windows.open_windows == 0
        assert windows.flush() == []

    def test_gating_filters_quiet_devices_but_keeps_senders(self):
        windows = manager(window_s=10.0, min_observations=3)
        for offset in (0.0, 1000.0, 2000.0):
            feed(windows, make_data_capture(offset, A, AP))
        feed(windows, make_data_capture(3000.0, B, AP))  # one frame only
        (closed,) = windows.flush()
        assert set(closed.signatures) == {A}
        assert closed.senders == {A, B}


class TestSliding:
    def test_concurrent_window_count(self):
        windows = manager(window_s=10.0, slide_s=2.5)
        feed(windows, make_data_capture(0.0, A, AP))
        assert windows.open_windows == 1  # only window 0 covers t=0
        feed(windows, make_data_capture(9_000_000.0, A, AP))
        # Slides at 0, 2.5, 5, 7.5 s all cover t=9 s.
        assert windows.open_windows == 4

    def test_frame_lands_in_every_covering_window(self):
        windows = manager(window_s=10.0, slide_s=5.0)
        feed(windows, make_data_capture(0.0, A, AP))
        feed(windows, make_data_capture(7_000_000.0, B, AP))
        closed = {w.index: w for w in windows.flush()}
        assert set(closed) == {0, 1}
        assert closed[0].senders == {A, B}  # [0, 10) saw both
        assert closed[1].senders == {B}  # [5, 15) saw only the late frame

    def test_windows_close_in_index_order(self):
        windows = manager(window_s=10.0, slide_s=2.5)
        feed(windows, make_data_capture(0.0, A, AP))
        feed(windows, make_data_capture(9_000_000.0, A, AP))
        closed = feed(windows, make_data_capture(16_000_000.0, B, AP))
        assert [w.index for w in closed] == [0, 1, 2]


class TestConfigValidation:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            WindowConfig(window_s=0.0)
        with pytest.raises(ValueError):
            WindowConfig(window_s=10.0, slide_s=20.0)
        with pytest.raises(ValueError):
            WindowConfig(window_s=10.0, slide_s=0.0)
        # An infinite window would fail only on the first chunk, when a
        # NaN slide position is converted to an integer.
        with pytest.raises(ValueError, match="window size .* finite"):
            WindowConfig(window_s=float("inf"), slide_s=float("inf"))


class TestRestoreValidation:
    """``restore_state`` checks the whole payload before it changes the
    manager, and names the field and the window index it refuses."""

    @staticmethod
    def sliding() -> WindowManager:
        """Sliding windows over a parameter with a channel clock."""
        return WindowManager(
            lambda: StreamingSignatureBuilder(InterArrivalTime(), min_observations=1),
            WindowConfig(window_s=10.0, slide_s=5.0),
        )

    def snapshot(self) -> dict:
        """A JSON round-tripped payload with windows 15 and 16 open."""
        windows = self.sliding()
        frames = [make_data_capture(t * 1e6, (A, B)[t % 2], AP) for t in range(85)]
        feed(windows, *frames)
        payload = json.loads(json.dumps(windows.export_state()))
        assert [entry["index"] for entry in payload["open"]] == [15, 16]
        assert payload["next_index"] == 17
        return payload

    def refused(self, payload: dict, match: str) -> None:
        windows = self.sliding()
        windows.restore_state(self.snapshot())
        before = windows.export_state()
        with pytest.raises(ValueError, match=match):
            windows.restore_state(payload)
        assert windows.export_state() == before

    def test_valid_snapshot_round_trips(self):
        payload = self.snapshot()
        windows = self.sliding()
        windows.restore_state(payload)
        assert windows.export_state() == payload

    def test_window_listed_twice_is_refused(self):
        payload = self.snapshot()
        payload["open"].append(payload["open"][-1])
        self.refused(payload, "open window 16 follows window 16")

    def test_negative_next_index_is_refused(self):
        payload = self.snapshot()
        payload["next_index"] = -3
        self.refused(payload, "next_index is not a non-negative integer")

    def test_window_not_below_next_index_is_refused(self):
        payload = self.snapshot()
        payload["next_index"] = 16
        self.refused(payload, "open window 16 is not below next_index 16")

    def test_reversed_windows_are_refused(self):
        payload = self.snapshot()
        payload["open"].reverse()
        self.refused(payload, "open window 15 follows window 16")

    def test_end_before_start_is_refused(self):
        payload = self.snapshot()
        entry = payload["open"][0]
        entry["end_us"] = entry["start_us"] - 1.0
        self.refused(payload, "open window 15 end_us")

    def test_start_off_the_slide_grid_is_refused(self):
        payload = self.snapshot()
        payload["open"][1]["start_us"] += 1.0
        self.refused(payload, "open window 16 start_us")

    def test_negative_frame_count_is_refused(self):
        payload = self.snapshot()
        payload["open"][0]["frame_count"] = -1
        self.refused(payload, "open window 15 frame_count")

    def test_fractional_frame_count_is_refused(self):
        payload = self.snapshot()
        payload["open"][0]["frame_count"] = 2.5
        self.refused(payload, "open window 15 frame_count")

    def test_sender_listed_twice_is_refused(self):
        payload = self.snapshot()
        senders = payload["open"][1]["senders"]
        senders.append(senders[0])
        self.refused(payload, "open window 16 lists a sender twice")

    def test_sender_beyond_48_bits_is_refused(self):
        payload = self.snapshot()
        payload["open"][1]["senders"][0] = 1 << 48
        self.refused(payload, "open window 16 senders: .* 48-bit")

    def test_channel_clock_outside_the_window_is_refused(self):
        payload = self.snapshot()
        payload["open"][1]["builder"]["previous_t"] = 1e18
        self.refused(payload, "open window 16 channel clock previous_t 1e\\+18")
