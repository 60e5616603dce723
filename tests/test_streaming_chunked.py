"""Chunked columnar ingest does not depend on where the chunks end.

Chunked ingest (``StreamEngine.process_chunk``,
``WindowManager.update_table``, ``StreamingSignatureBuilder.update_table``)
is the only streaming path, so every test here checks it against code
that exists for its own sake:

* builder signatures equal the per-frame oracle
  :func:`tests.oracles.build` on the same frames, for all five
  parameters and any chunking down to 1-row chunks;
* builder checkpoint payloads equal a feed in 1-row chunks (and the
  payloads pinned in ``tests/golden/``);
* tumbling-window matches equal
  :func:`~repro.core.detection.extract_window_candidates`;
* sliding windows, residency peaks and checkpoint splices cut
  mid-chunk emit exactly the events and :class:`StreamStats` of a run
  in 1-row chunks.

Each 1-row reference is computed once per parametrisation.  Signatures
and ``ClosedWindow`` objects hold ndarray fields, so equivalence is
asserted through events (scalar frozen dataclasses), ``StreamStats``,
and ``export_state()`` dictionaries.
"""

from __future__ import annotations

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.database import ReferenceDatabase
from repro.core.detection import DetectionConfig, extract_window_candidates
from repro.core.joint import JointParameter
from repro.core.parameters import ALL_PARAMETERS, InterArrivalTime, parameter_by_name
from repro.core.signature import SignatureBuilder
from repro.dot11.capture import CapturedFrame
from repro.dot11.frames import Dot11Frame, FrameSubtype
from repro.dot11.mac import vendor_mac
from repro.streaming import (
    CollectingSink,
    DeviceMatched,
    StreamEngine,
    StreamingSignatureBuilder,
    WindowClosed,
    WindowConfig,
    replay_chunk_source,
    table_chunks,
)
from repro.traces.table import FrameTable
from repro.traces.trace import Trace
from tests import oracles
from tests.conftest import make_data_capture
from tests.test_streaming_builder import assert_signatures_equal

AP = vendor_mac("00:0f:66", 99)


def synth_frames(
    count: int = 1200, seed: int = 3, devices: int = 5, ack_share: float = 0.1
) -> list[CapturedFrame]:
    """A mixed capture: several devices, ACKs advancing the channel clock."""
    rng = random.Random(seed)
    senders = [vendor_mac("00:13:e8", i + 1) for i in range(devices)]
    frames = []
    t = 10_000.0
    for _ in range(count):
        t += rng.uniform(400, 5000)
        if rng.random() < ack_share:
            frames.append(
                CapturedFrame(
                    timestamp_us=t,
                    frame=Dot11Frame(subtype=FrameSubtype.ACK, size=14, addr1=AP),
                    rate_mbps=24.0,
                )
            )
        else:
            frames.append(
                make_data_capture(
                    t,
                    rng.choice(senders),
                    AP,
                    size=rng.choice([90, 400, 1500]),
                    rate=rng.choice([6.0, 24.0, 54.0]),
                    subtype=rng.choice(
                        [FrameSubtype.QOS_DATA, FrameSubtype.DATA, FrameSubtype.BEACON]
                    ),
                )
            )
    return frames


FRAMES = synth_frames()
TABLE = FrameTable.from_frames(FRAMES)
#: The ordered joint pairs with a channel-clock component (14 of 20).
CLOCK_PAIRS = [
    (x.name, y.name)
    for x in ALL_PARAMETERS
    for y in ALL_PARAMETERS
    if x is not y and (x.table_memory or y.table_memory)
]


def chunk_spans(total: int, sizes: list[int]):
    """Cut ``[0, total)`` into spans cycling through ``sizes``."""
    spans, lo, i = [], 0, 0
    while lo < total:
        hi = min(total, lo + sizes[i % len(sizes)])
        spans.append((lo, hi))
        lo, i = hi, i + 1
    return spans


def make_builder(parameter) -> StreamingSignatureBuilder:
    return StreamingSignatureBuilder(parameter, min_observations=10)


@functools.cache
def one_row_builder_state(name: str) -> dict:
    """Builder payload after feeding ``FRAMES`` one row at a time."""
    builder = make_builder(parameter_by_name(name))
    for row in range(len(TABLE)):
        builder.update_table(TABLE, row, row + 1)
    return builder.export_state()


@functools.cache
def batch_signatures(name: str) -> dict:
    return oracles.build(
        SignatureBuilder(parameter_by_name(name), min_observations=10), FRAMES
    )


class TestBuilderEquivalence:
    @pytest.mark.parametrize("parameter", ALL_PARAMETERS, ids=lambda p: p.name)
    @given(sizes=st.lists(st.integers(1, 400), min_size=1, max_size=6))
    @settings(deadline=None, max_examples=15)
    def test_update_table_matches_per_frame(self, parameter, sizes):
        """Any chunking leaves the state of a one-row-at-a-time feed,
        and the signatures are the per-frame oracle's."""
        chunked = make_builder(parameter)
        for lo, hi in chunk_spans(len(TABLE), sizes):
            chunked.update_table(TABLE, lo, hi)

        assert chunked.export_state() == one_row_builder_state(parameter.name)
        assert_signatures_equal(batch_signatures(parameter.name), chunked.signatures())

    @pytest.mark.parametrize("x, y", CLOCK_PAIRS, ids=[f"{x}x{y}" for x, y in CLOCK_PAIRS])
    def test_clock_joint_pairs_stream(self, x, y):
        """A joint pair reading the channel clock observes each chunk's
        first row against the carried clock, through both components:
        any chunking reproduces the per-frame oracle."""
        parameter = JointParameter(x, y)
        batch = oracles.build(SignatureBuilder(parameter, min_observations=10), FRAMES)
        assert batch
        for size in (1, 37, 256):
            chunked = make_builder(parameter)
            for lo, hi in chunk_spans(len(TABLE), [size]):
                chunked.update_table(TABLE, lo, hi)
            assert_signatures_equal(batch, chunked.signatures())

    def test_joint_pair_without_clock_streams(self):
        """A per-frame joint pair needs no carried clock and streams."""
        parameter = JointParameter("size", "rate")
        chunked = make_builder(parameter)
        for lo, hi in chunk_spans(len(TABLE), [1, 37, 256]):
            chunked.update_table(TABLE, lo, hi)
        batch = oracles.build(SignatureBuilder(parameter, min_observations=10), FRAMES)
        assert batch
        assert_signatures_equal(batch, chunked.signatures())

    def test_mid_burst_chunk_boundary_carries_channel_clock(self):
        """A chunk cut between two frames of one device's burst must
        still observe the gap across the cut (the carried ``t_{i-1}``)."""
        a = vendor_mac("00:13:e8", 1)
        frames = [make_data_capture(1000.0 * i, a, AP) for i in range(1, 11)]
        table = FrameTable.from_frames(frames)
        parameter = InterArrivalTime()
        batch = oracles.build(SignatureBuilder(parameter, min_observations=1), frames)
        assert batch[a].observation_counts == {"QoS Data": 9}
        for cut in range(1, len(frames)):
            chunked = StreamingSignatureBuilder(parameter, min_observations=1)
            chunked.update_table(table, 0, cut)
            chunked.update_table(table, cut, len(frames))
            assert_signatures_equal(batch, chunked.signatures())


def make_engine(parameter, sink, window_s=10.0, slide_s=None, database=None):
    return StreamEngine(
        lambda: StreamingSignatureBuilder(parameter, min_observations=10),
        database=database,
        window=WindowConfig(window_s=window_s, slide_s=slide_s),
        sinks=[sink],
    )


def run_chunks(make, chunks):
    """Events and stats of one engine fed ``chunks`` then flushed."""
    sink = CollectingSink()
    stats = make(sink).run_chunked(chunks)
    return sink.events, stats


#: Short windows so FRAMES (~3.2 s of capture) closes several of them.
ENGINE_WINDOW_S = 1.0
SLIDES = {"tumbling": None, "sliding": 0.3}


@functools.cache
def learnt_database(name: str) -> ReferenceDatabase:
    return ReferenceDatabase.from_training_table(
        SignatureBuilder(parameter_by_name(name), min_observations=10), TABLE
    )


def engine_factory(name: str, slide: str):
    return functools.partial(
        make_engine,
        parameter_by_name(name),
        window_s=ENGINE_WINDOW_S,
        slide_s=SLIDES[slide],
        database=learnt_database(name),
    )


@functools.cache
def one_row_run(name: str, slide: str):
    return run_chunks(engine_factory(name, slide), replay_chunk_source(TABLE, 1))


class TestEngineEquivalence:
    @pytest.mark.parametrize("parameter", ALL_PARAMETERS, ids=lambda p: p.name)
    @pytest.mark.parametrize("slide", sorted(SLIDES, reverse=True))
    @given(chunk_frames=st.integers(1, 2000))
    @settings(deadline=None, max_examples=10)
    def test_run_chunked_matches_run(self, parameter, slide, chunk_frames):
        """Any chunk size emits the events and stats of a run in 1-row
        chunks."""
        events, stats = run_chunks(
            engine_factory(parameter.name, slide),
            replay_chunk_source(TABLE, chunk_frames),
        )
        reference_events, reference_stats = one_row_run(parameter.name, slide)
        assert events == reference_events
        assert stats == reference_stats

    @pytest.mark.parametrize("parameter", ALL_PARAMETERS, ids=lambda p: p.name)
    def test_tumbling_matches_equal_extract_window_candidates(self, parameter):
        builder = SignatureBuilder(parameter, min_observations=10)
        database = learnt_database(parameter.name)
        candidates = extract_window_candidates(
            Trace.from_frames(FRAMES, name="synth"),
            builder,
            database,
            DetectionConfig(window_s=ENGINE_WINDOW_S, min_observations=10),
        )
        expected = {}
        for candidate in candidates:
            expected[(candidate.window_index, candidate.device)] = candidate.best
        events, _ = one_row_run(parameter.name, "tumbling")
        streamed = {
            (event.window_index, event.device): (event.best_device, event.similarity)
            for event in events
            if isinstance(event, DeviceMatched)
        }
        assert expected  # every parameter yields candidates here
        assert set(streamed) == set(expected)
        for key, (device, similarity) in expected.items():
            assert streamed[key][0] == device
            assert streamed[key][1] == pytest.approx(similarity, abs=1e-9)

    def test_chunk_boundary_exactly_on_window_boundary(self):
        """Windows of 10 s, one frame per second, chunks of 10 frames:
        every chunk boundary coincides with a window boundary — the
        hardest alignment for the splitting logic."""
        a, b = vendor_mac("00:13:e8", 1), vendor_mac("00:18:f8", 2)
        frames = [
            make_data_capture(1e6 * i, a if i % 2 else b, AP) for i in range(100)
        ]
        make = functools.partial(make_engine, InterArrivalTime())
        reference_events, reference_stats = run_chunks(make, table_chunks(frames, 1))
        for chunk_frames in (10, 20, 5):
            events, stats = run_chunks(make, table_chunks(frames, chunk_frames))
            assert events == reference_events
            assert stats == reference_stats
        assert any(isinstance(event, WindowClosed) for event in reference_events)

    def test_checkpoint_at_chunk_boundary_resumes_identically(self, tmp_path):
        """Checkpoint after N whole chunks, restore into a fresh engine,
        finish with the remaining chunks: the two halves must splice
        into exactly the uninterrupted run's event stream and stats."""
        make = engine_factory("interarrival", "tumbling")
        whole_events, whole_stats = one_row_run("interarrival", "tumbling")

        chunks = list(replay_chunk_source(TABLE, 170))
        for boundary in (1, len(chunks) // 2, len(chunks) - 1):
            first_sink = CollectingSink()
            first = make(first_sink)
            for chunk in chunks[:boundary]:
                first.process_chunk(chunk)
            checkpoint = first.checkpoint(tmp_path / "ck.json")

            second_sink = CollectingSink()
            second = make(second_sink)
            second.restore(checkpoint)
            second.run_chunked(chunks[boundary:])

            assert first_sink.events + second_sink.events == whole_events
            assert second.stats == whole_stats

    @pytest.mark.parametrize("parameter", ALL_PARAMETERS, ids=lambda p: p.name)
    @pytest.mark.parametrize("slide", sorted(SLIDES, reverse=True))
    def test_checkpoint_cut_mid_chunk_resumes_identically(
        self, tmp_path, parameter, slide
    ):
        """Cut the capture inside a chunk: the first engine ends on the
        chunk's head, the restored one starts on its tail."""
        make = engine_factory(parameter.name, slide)
        whole_events, whole_stats = one_row_run(parameter.name, slide)
        for cut in (7, 401, 950):
            first_sink = CollectingSink()
            first = make(first_sink)
            for chunk in replay_chunk_source(TABLE.slice_rows(0, cut), 300):
                first.process_chunk(chunk)
            checkpoint = first.checkpoint(tmp_path / "ck.json")

            second_sink = CollectingSink()
            second = make(second_sink)
            second.restore(checkpoint)
            second.run_chunked(
                replay_chunk_source(TABLE.slice_rows(cut, len(TABLE)), 300)
            )

            assert first_sink.events + second_sink.events == whole_events
            assert second.stats == whole_stats

    def test_peak_resident_devices_independent_of_chunking(self):
        """Devices arrive one after another through short tumbling
        windows, so residency drops at every window close: the peak
        before a close must count wherever the chunks happen to end."""
        frames = []
        t = 0.0
        for number in range(60):
            device = vendor_mac("00:13:e8", number + 1)
            # Uneven dwell times give the windows uneven populations.
            for _ in range(40):
                t += 1000.0 * (1 + number % 3)
                frames.append(make_data_capture(t, device, AP))
        make = functools.partial(make_engine, InterArrivalTime(), window_s=0.25)
        runs = [
            run_chunks(make, table_chunks(frames, chunk_frames))
            for chunk_frames in (1, 100, 512, 513, 4096)
        ]
        reference_events, reference_stats = runs[0]
        assert reference_stats.windows_closed > 10
        # Residency grew inside windows and dropped at their closes.
        assert 1 < reference_stats.peak_resident_devices < 60
        for events, stats in runs[1:]:
            assert events == reference_events
            assert stats == reference_stats
