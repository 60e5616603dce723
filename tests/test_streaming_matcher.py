"""Direct tests of :class:`StreamCandidate` and :class:`OnlineMatcher`.

A candidate holds its row of the window's score matrix and the window's
reference tuple, and ``best`` is the row's first maximum.  The row must
equal the same window's :func:`batch_match_signatures` matrix and agree
with the per-pair oracle loop (``tests.oracles.scalar_match``).  The
live path's candidate is the batch path's class, so these checks hold
for both.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.database import ReferenceDatabase
from repro.core.detection import WindowCandidate
from repro.core.matcher import batch_match_signatures
from repro.dot11.mac import vendor_mac
from repro.streaming import OnlineMatcher, StreamCandidate
from repro.streaming.windows import ClosedWindow
from tests.oracles import first_maximum, scalar_match
from tests.test_batch_matching import random_signature


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
