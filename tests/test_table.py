"""The columnar trace backbone: FrameTable, vectorized extraction.

Property-pins the equivalences of DESIGN.md §6 against the per-frame
oracles of ``tests/oracles.py``:

* ``observe_table`` reproduces the scalar extractors **bit for bit** for
  all five parameters on arbitrary frame sequences — including
  sender-less ACK/CTS frames that advance the channel clock without
  ever yielding an observation;
* ``FrameTable.from_frames`` columns hold every frame's fields, flag
  bits included, and the flags survive slicing, mask selection and the
  wire;
* each Section VI filter mask and the rogue-AP own-row mask select
  exactly the frames of their per-frame oracle;
* ``SignatureBuilder.build_table`` matches the bucketed oracle
  ``build`` bin for bin, weight for weight, in the same dict order;
* the whole-trace window-candidate path matches per-window oracle
  assembly, similarities included.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.applications.rogue_ap import ap_own_rows
from repro.core.database import ReferenceDatabase
from repro.core.detection import DetectionConfig, extract_window_candidates
from repro.core.parameters import ALL_PARAMETERS
from repro.core.signature import SignatureBuilder
from repro.dot11.capture import CapturedFrame
from repro.dot11.frames import Dot11Frame, FrameSubtype, ack_frame, cts_frame
from repro.dot11.mac import BROADCAST, MacAddress, vendor_mac
from repro.dot11.phy import ALL_RATES
from repro.traces import filters
from repro.traces.table import (
    FROM_DS,
    GROUP_ADDRESSED,
    RETRY,
    FrameTable,
    window_bounds,
)
from repro.traces.trace import Trace
from tests import oracles
from tests.test_wire import wire_round_trip

SENDERS = [vendor_mac("00:13:e8", i) for i in range(1, 5)]
AP = vendor_mac("00:0f:b5", 1)
#: Receivers: the AP, a station, the broadcast address and a multicast group.
RECEIVERS = [AP, SENDERS[0], BROADCAST, MacAddress.parse("01:00:5e:00:00:fb")]

_SUBTYPES = [
    FrameSubtype.QOS_DATA,
    FrameSubtype.DATA,
    FrameSubtype.NULL_FUNCTION,
    FrameSubtype.PROBE_REQUEST,
    FrameSubtype.BEACON,
    FrameSubtype.RTS,
]


@st.composite
def capture_sequences(draw):
    """Time-ordered frame mixes with sender-less ACK/CTS interleaved."""
    count = draw(st.integers(min_value=0, max_value=80))
    frames = []
    t = 0.0
    for _ in range(count):
        t += draw(st.floats(min_value=0.0, max_value=5000.0))
        kind = draw(st.integers(min_value=0, max_value=9))
        if kind == 0:
            frame = ack_frame(draw(st.sampled_from(SENDERS)))
        elif kind == 1:
            frame = cts_frame(draw(st.sampled_from(SENDERS)))
        else:
            frame = Dot11Frame(
                subtype=draw(st.sampled_from(_SUBTYPES)),
                size=draw(st.integers(min_value=20, max_value=2400)),
                addr1=draw(st.sampled_from(RECEIVERS)),
                addr2=draw(st.sampled_from(SENDERS + [AP])),
                addr3=AP,
                retry=draw(st.booleans()),
                from_ds=draw(st.booleans()),
            )
        frames.append(
            CapturedFrame(
                timestamp_us=t,
                frame=frame,
                rate_mbps=draw(st.sampled_from(ALL_RATES)),
            )
        )
    return frames


class TestObserveTableEquivalence:
    @given(frames=capture_sequences())
    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    def test_observe_table_matches_observations_bitwise(self, frames):
        table = FrameTable.from_frames(frames)
        for parameter in ALL_PARAMETERS:
            scalar = list(oracles.observations(parameter, frames))
            batch = parameter.observe_table(table)
            assert batch is not None
            assert len(scalar) == batch.values.shape[0], parameter.name
            for row, observation in enumerate(scalar):
                assert table.senders[batch.sender_idx[row]] == observation.sender
                assert table.ftype_keys[batch.ftype_idx[row]] == observation.ftype_key
                # Bit-for-bit, not approx: the vectorized arithmetic
                # must replay the scalar operations exactly.
                assert batch.values[row] == observation.value, parameter.name

    @given(frames=capture_sequences())
    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    def test_from_frames_columns_hold_every_frame(self, frames):
        table = FrameTable.from_frames(frames)
        assert_columns_match(table, frames)
        # Row slices hold the corresponding sub-list.
        if len(frames) >= 2:
            lo, hi = 1, len(frames) - 1
            assert_columns_match(table.slice_rows(lo, hi), frames[lo:hi])

    @given(frames=capture_sequences())
    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
    def test_build_table_matches_build(self, frames):
        for parameter in ALL_PARAMETERS:
            builder = SignatureBuilder(parameter, min_observations=1)
            table = FrameTable.from_frames(frames)
            scalar = oracles.build(builder, frames)
            columnar = builder.build_table(table)
            assert list(scalar) == list(columnar), parameter.name
            for device, expected in scalar.items():
                actual = columnar[device]
                assert list(expected.histograms) == list(actual.histograms)
                for key, histogram in expected.histograms.items():
                    assert np.array_equal(histogram, actual.histograms[key])
                    assert expected.weights[key] == actual.weights[key]
                    assert (
                        expected.observation_counts[key]
                        == actual.observation_counts[key]
                    )


def frame_flags(captured: CapturedFrame) -> int:
    """The flag byte a frame's MAC header should intern to."""
    frame = captured.frame
    return (
        (RETRY if frame.retry else 0)
        | (FROM_DS if frame.from_ds else 0)
        | (GROUP_ADDRESSED if frame.addr1.is_multicast else 0)
    )


def assert_columns_match(table: FrameTable, frames: list[CapturedFrame]) -> None:
    """Every column (flags included) holds the frames' fields, row by row."""
    assert len(table) == len(frames)
    assert table.flags.dtype == np.uint8
    assert table.timestamp_us.tolist() == [c.timestamp_us for c in frames]
    assert table.size.tolist() == [float(c.size) for c in frames]
    assert table.rate_mbps.tolist() == [c.rate_mbps for c in frames]
    assert [
        None if code < 0 else table.senders[code] for code in table.sender_idx.tolist()
    ] == [c.sender for c in frames]
    assert [table.ftype_keys[code] for code in table.ftype_idx.tolist()] == [
        c.ftype_key for c in frames
    ]
    assert table.flags.tolist() == [frame_flags(c) for c in frames]


class TestFlags:
    @given(frames=capture_sequences(), data=st.data())
    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    def test_flags_survive_slice_select_and_wire(self, frames, data):
        table = FrameTable.from_frames(frames)
        expected = [frame_flags(c) for c in frames]
        assert table.flags.tolist() == expected
        lo = data.draw(st.integers(min_value=0, max_value=len(frames)))
        hi = data.draw(st.integers(min_value=lo, max_value=len(frames)))
        assert table.slice_rows(lo, hi).flags.tolist() == expected[lo:hi]
        keep = data.draw(
            st.lists(st.booleans(), min_size=len(frames), max_size=len(frames))
        )
        selected = table.select(np.asarray(keep, dtype=bool))
        assert_columns_match(selected, [c for c, k in zip(frames, keep) if k])
        assert selected.senders is table.senders
        decoded = wire_round_trip(table)
        assert decoded.flags.tolist() == expected
        assert_columns_match(decoded, frames)

    @given(frames=capture_sequences())
    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    def test_filter_masks_match_frame_oracles(self, frames):
        table = FrameTable.from_frames(frames)
        for name, rule in oracles.FRAME_RULES.items():
            mask = getattr(filters, name)
            if name == "sent_at_rate":
                for rate in (1.0, 11.0, 54.0):
                    assert mask(table, rate).tolist() == [
                        rule(c, rate) for c in frames
                    ], (name, rate)
            else:
                assert mask(table).tolist() == [rule(c) for c in frames], name

    @given(frames=capture_sequences())
    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    def test_ap_own_rows_match_oracle(self, frames):
        table = FrameTable.from_frames(frames)
        for ap in (AP, SENDERS[0], vendor_mac("00:0f:b5", 9)):
            own = ap_own_rows(table, ap)
            assert own.dtype == bool and len(own) == len(frames)
            kept = [c for c, keep in zip(frames, own.tolist()) if keep]
            assert kept == oracles.ap_own_frames(frames, ap)

    def test_bare_columns_get_zero_flags(self):
        table = FrameTable(
            timestamp_us=np.array([0.0, 1.0]),
            size=np.array([100.0, 100.0]),
            rate_mbps=np.array([54.0, 54.0]),
            sender_idx=np.array([0, -1]),
            ftype_idx=np.array([0, 0]),
            senders=(SENDERS[0],),
            ftype_keys=("QoS Data",),
        )
        assert table.flags.dtype == np.uint8
        assert table.flags.tolist() == [0, 0]


class TestTableSlicing:
    def _frames(self, stamps):
        return [
            CapturedFrame(
                timestamp_us=t,
                frame=Dot11Frame(
                    subtype=FrameSubtype.QOS_DATA, size=100, addr1=AP,
                    addr2=SENDERS[0], addr3=AP,
                ),
                rate_mbps=54.0,
            )
            for t in stamps
        ]

    def test_slice_us_is_a_view(self):
        table = FrameTable.from_frames(self._frames([0.0, 10.0, 20.0, 30.0]))
        window = table.slice_us(10.0, 30.0)
        assert len(window) == 2
        assert window.timestamp_us.base is not None  # view, not copy
        assert window.senders is table.senders
        assert window.flags.base is not None
        assert_columns_match(window, self._frames([0.0, 10.0, 20.0, 30.0])[1:3])

    def test_windows_match_trace_windows(self):
        stamps = [0.0, 40.0, 100.0, 160.0, 200.0]
        frames = self._frames(stamps)
        table = FrameTable.from_frames(frames)
        trace = Trace.from_frames(frames)
        for window_s in (100 / 1e6, 60 / 1e6, 250 / 1e6):
            table_lens = [len(w) for w in table.windows(window_s)]
            trace_lens = [len(w) for w in trace.windows(window_s)]
            assert table_lens == trace_lens

    def test_window_bounds_cover_all_frames(self):
        stamps = np.array([0.0, 30.0, 60.0, 90.0])
        bounds = list(window_bounds(stamps, 30 / 1e6))
        assert bounds[0][0] == 0 and bounds[-1][1] == len(stamps)
        covered = sum(hi - lo for lo, hi in bounds)
        assert covered == len(stamps)

    def test_mask_ftypes_and_sender_code(self):
        frames = self._frames([0.0, 5.0]) + [
            CapturedFrame(timestamp_us=9.0, frame=ack_frame(SENDERS[0]), rate_mbps=1.0)
        ]
        table = FrameTable.from_frames(frames)
        assert table.mask_ftypes({"QoS Data"}).sum() == 2
        assert table.mask_ftypes({"Beacon"}).sum() == 0
        assert table.sender_code(SENDERS[0]) == 0
        assert table.sender_code(SENDERS[3]) == -1

    def test_sender_code_on_views_compares_integers(self, monkeypatch):
        """First index or -1 on a row view and a selection, which share
        the parent's MAC integers, and no address compared in Python."""
        a, b = SENDERS[0], SENDERS[1]
        table = FrameTable(
            timestamp_us=np.array([0.0, 1.0, 2.0]),
            size=np.full(3, 100.0),
            rate_mbps=np.full(3, 54.0),
            sender_idx=np.array([0, 1, 2]),
            ftype_idx=np.zeros(3, dtype=np.int64),
            senders=(a, b, a),
            ftype_keys=("QoS Data",),
        )
        view = table.slice_rows(1, 3)
        chosen = table.select(np.array([False, True, False]))
        assert view.sender_values is table.sender_values
        assert chosen.sender_values is table.sender_values
        assert table.sender_values.tolist() == [a.value, b.value, a.value]
        compared = []

        def counting_eq(self, other):
            compared.append(other)
            return isinstance(other, MacAddress) and self.value == other.value

        monkeypatch.setattr(MacAddress, "__eq__", counting_eq)
        for subset in (view, chosen):
            assert subset.sender_code(MacAddress(a.value)) == 0
            assert subset.sender_code(MacAddress(b.value)) == 1
            assert subset.sender_code(SENDERS[3]) == -1
        assert compared == []

    @given(frames=capture_sequences(), data=st.data())
    def test_sender_codes_are_the_codes_present(self, frames, data):
        """Ascending, ``-1`` left out: what ``np.unique`` gives."""
        table = FrameTable.from_frames(frames)
        lo = data.draw(st.integers(0, len(table)))
        hi = data.draw(st.integers(lo, len(table)))
        span = table.sender_idx[lo:hi]
        expected = np.unique(span[span >= 0])
        assert table.sender_codes(lo, hi).tolist() == expected.tolist()
        present = {frame.sender for frame in frames} - {None}
        assert table.active_senders() == present

    def test_pcap_table_holds_the_written_frames(self, tmp_path):
        from repro.radiotap.pcap import write_trace_pcap

        frames = self._frames([0.0, 100.0, 250.0]) + [
            CapturedFrame(timestamp_us=300.0, frame=ack_frame(SENDERS[0]), rate_mbps=1.0)
        ]
        path = tmp_path / "t.pcap"
        write_trace_pcap(path, frames)
        table = Trace.from_pcap(path).table()
        assert_columns_match(table, frames)
        assert table.sender_idx.tolist()[-1] == -1  # ACK stays sender-less


class TestColumnarDetectionEquivalence:
    @pytest.mark.parametrize("parameter", ALL_PARAMETERS, ids=lambda p: p.name)
    def test_window_candidates_match_object_path(
        self, small_office_trace, parameter
    ):
        builder = SignatureBuilder(parameter, min_observations=10)
        split = small_office_trace.split(30.0)
        database = oracles.from_training(builder, split.training.frames)
        table_db = ReferenceDatabase.from_training_table(
            builder, split.training.table()
        )
        assert database.devices == table_db.devices
        config = DetectionConfig(window_s=10.0, min_observations=10)
        reference = oracles.window_candidates(
            split.validation, builder, database, config
        )
        columnar = extract_window_candidates(
            split.validation, builder, table_db, config
        )
        assert [(c.device, c.window_index) for c in reference] == [
            (c.device, c.window_index) for c in columnar
        ]
        for expected, actual in zip(reference, columnar):
            assert oracles.similarities(expected) == oracles.similarities(actual)
