"""Direct tests of :class:`StreamCandidate` and :class:`OnlineMatcher`.

A candidate holds its row of the window's score matrix and the window's
reference tuple, and ``best`` is the row's first maximum.  The row must
equal the same window's :func:`batch_match_signatures` matrix and agree
with the per-pair oracle loop (``tests.oracles.scalar_match``).  The
live path's candidate is the batch path's class, so these checks hold
for both.  A window closed by the engine reaches the matcher as its
builder's :class:`SignatureBlock`; its rows equal the list path's, and
closing it builds no :class:`Signature` until one is looked up.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.database import ReferenceDatabase
from repro.core.detection import WindowCandidate
from repro.core.matcher import batch_match_signatures
from repro.core.parameters import InterArrivalTime
from repro.core.signature import Signature, SignatureBlock, SignatureBuilder
from repro.dot11.frames import FrameSubtype
from repro.dot11.mac import vendor_mac
from repro.streaming import (
    CollectingSink,
    DeviceMatched,
    OnlineMatcher,
    StreamCandidate,
    StreamEngine,
    StreamingSignatureBuilder,
    WindowAnalyzer,
    WindowConfig,
    WindowManager,
    replay_chunk_source,
)
from repro.streaming.windows import ClosedWindow
from repro.traces.table import FrameTable
from tests import oracles
from tests.conftest import make_data_capture
from tests.oracles import first_maximum, scalar_match
from tests.test_batch_matching import random_signature
from tests.test_streaming_builder import assert_signatures_equal


def closed_window(signatures: dict) -> ClosedWindow:
    return ClosedWindow(
        index=7,
        start_us=0.0,
        end_us=10e6,
        frame_count=100,
        signatures=signatures,
        senders=set(signatures),
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(2024)


class TestStreamCandidate:
    def test_is_the_batch_candidate_class(self):
        assert StreamCandidate is WindowCandidate
        assert isinstance(StreamCandidate.__dict__["best"], property)

    @pytest.mark.parametrize("twin_first", [True, False])
    def test_tie_breaks_towards_earlier_registered_reference(self, rng, twin_first):
        shared = random_signature(rng)
        a, b, c = (vendor_mac("00:13:e8", i) for i in (1, 2, 3))
        database = ReferenceDatabase()
        database.add(c, random_signature(rng))
        for device in (a, b) if twin_first else (b, a):
            database.add(device, shared)
        earlier = a if twin_first else b

        (candidate,) = OnlineMatcher(database).match_window(
            closed_window({vendor_mac("00:18:f8", 9): shared})
        )
        winner, score = candidate.best
        expected_winner, expected_score = first_maximum(scalar_match(shared, database))
        assert winner == expected_winner == earlier
        assert score == pytest.approx(expected_score, abs=1e-12)
        columns = [candidate.references.index(device) for device in (a, b)]
        assert candidate.scores[columns].tolist() == [score, score]

    def test_similarities_equal_match_signature(self, rng):
        database = ReferenceDatabase()
        for i in range(12):
            database.add(vendor_mac("00:13:e8", i + 1), random_signature(rng))
        signatures = {vendor_mac("00:18:f8", i + 1): random_signature(rng) for i in range(5)}

        candidates = OnlineMatcher(database).match_window(closed_window(signatures))

        assert [c.device for c in candidates] == list(signatures)
        matrix = batch_match_signatures(list(signatures.values()), database)
        for candidate, row in zip(candidates, matrix):
            assert candidate.window_index == 7
            assert candidate.signature is signatures[candidate.device]
            assert candidate.references == tuple(database.devices)
            assert candidate.scores.tolist() == row.tolist()
            expected = scalar_match(candidate.signature, database)
            assert list(expected) == database.devices
            assert candidate.scores.tolist() == pytest.approx(
                list(expected.values()), abs=1e-12
            )
            winner, score = candidate.best
            assert score == row.max()
            assert winner == database.devices[int(row.argmax())]

    def test_empty_database_yields_no_candidates(self, rng):
        signatures = {vendor_mac("00:18:f8", 1): random_signature(rng)}
        assert OnlineMatcher(ReferenceDatabase()).match_window(closed_window(signatures)) == []

    def test_empty_window_yields_no_candidates(self, rng):
        database = ReferenceDatabase()
        database.add(vendor_mac("00:13:e8", 1), random_signature(rng))
        assert OnlineMatcher(database).match_window(closed_window({})) == []


QOS, DATA, BEACON, PROBE, NULL = (
    FrameSubtype.QOS_DATA,
    FrameSubtype.DATA,
    FrameSubtype.BEACON,
    FrameSubtype.PROBE_REQUEST,
    FrameSubtype.NULL_FUNCTION,
)
AP = vendor_mac("00:0f:66", 99)
MIN_OBS = 10
WINDOW_S = 0.25


def capture(seed: int, mixes: list[list[FrameSubtype]], frames: int = 900) -> list:
    """Device ``i + 1`` sends the frame types ``mixes[i]`` at its own rate."""
    rng = random.Random(seed)
    rates = [rng.uniform(0.2, 1.0) for _ in mixes]
    out, t = [], 0.0
    for _ in range(frames if mixes else 0):
        device = rng.choices(range(len(mixes)), rates)[0]
        t += rng.uniform(20.0, 2400.0)
        subtype = rng.choice(mixes[device])
        sender = vendor_mac("00:13:e8", device + 1)
        out.append(make_data_capture(t, sender, AP, subtype=subtype))
    return out


def frame_mix(subtypes: list[FrameSubtype]):
    """One device's frame types: one to three of ``subtypes``."""
    return st.lists(st.sampled_from(subtypes), min_size=1, max_size=3, unique=True)


def window_builder() -> StreamingSignatureBuilder:
    return StreamingSignatureBuilder(InterArrivalTime(), min_observations=MIN_OBS)


class TestBlockHandoff:
    """Candidates show QoS Data, which the store never holds; the store
    may hold Null frames, which no candidate shows."""

    @given(
        seed=st.integers(0, 2**16),
        mixes=st.lists(frame_mix([QOS, DATA, BEACON, PROBE]), min_size=1, max_size=5),
        store_mixes=st.lists(frame_mix([DATA, BEACON, PROBE, NULL]), max_size=4),
    )
    @settings(deadline=None, max_examples=25)
    # One candidate per window, against an empty store and a store.
    @example(seed=1, mixes=[[QOS]], store_mixes=[])
    @example(seed=4, mixes=[[QOS, DATA]], store_mixes=[[DATA]])
    # Candidates missing types, Beacon held by one candidate only, QoS
    # Data unknown to the store, Null and Probe shown by no candidate.
    @example(
        seed=2,
        mixes=[[QOS, DATA], [DATA], [BEACON, DATA]],
        store_mixes=[[DATA, NULL], [PROBE, BEACON]],
    )
    def test_block_rows_equal_the_list_path(self, seed, mixes, store_mixes):
        store = ReferenceDatabase.from_training_table(
            SignatureBuilder(InterArrivalTime(), min_observations=MIN_OBS),
            FrameTable.from_frames(capture(seed + 1, store_mixes, 600)),
        )
        frames = capture(seed, mixes)
        windows = []

        class Recorder(WindowAnalyzer):
            def on_window(self, closed, matches):
                windows.append((closed, matches))
                return []

        StreamEngine(
            window_builder,
            database=store,
            window=WindowConfig(window_s=WINDOW_S),
            analyzers=[Recorder()],
        ).run_chunked(replay_chunk_source(FrameTable.from_frames(frames), 97))

        assert windows
        batch = SignatureBuilder(InterArrivalTime(), min_observations=MIN_OBS)
        for closed, matches in windows:
            assert isinstance(closed.signatures, SignatureBlock)
            held = [
                f for f in frames if closed.start_us <= f.timestamp_us < closed.end_us
            ]
            assert_signatures_equal(oracles.build(batch, held), closed.signatures)
            rows = batch_match_signatures(list(closed.signatures.values()), store)
            assert rows.shape == (len(closed.signatures), len(store))
            if len(store) == 0:
                assert matches == []
                continue
            assert [match.device for match in matches] == list(closed.signatures)
            scores = np.array([match.scores for match in matches])
            assert np.array_equal(scores.reshape(rows.shape), rows)

    def test_closing_a_window_builds_no_signature(self, monkeypatch):
        frames = capture(3, [[QOS, DATA], [BEACON], [DATA, PROBE]])
        table = FrameTable.from_frames(frames)
        store = ReferenceDatabase.from_training_table(
            SignatureBuilder(InterArrivalTime(), min_observations=MIN_OBS), table
        )
        built = []
        post_init = Signature.__post_init__

        def counted(signature):
            built.append(signature)
            post_init(signature)

        monkeypatch.setattr(Signature, "__post_init__", counted)
        sink = CollectingSink()
        config = WindowConfig(window_s=WINDOW_S)
        engine = StreamEngine(window_builder, store, config, sinks=[sink])
        engine.run_chunked(replay_chunk_source(table, 128))
        assert sink.of_type(DeviceMatched)
        assert built == []

        manager = WindowManager(window_builder, config)
        items = list(manager.update_table(table))
        closed = [item[1] for item in items if item[0] == "closed"] + manager.flush()
        assert sum(len(window.signatures) for window in closed) > 0
        assert built == []
        signatures = next(w.signatures for w in closed if w.signatures)
        device = next(iter(signatures))
        assert device in signatures and built == []
        signatures[device]
        assert len(built) == 1
