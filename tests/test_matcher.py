"""Unit tests for Algorithm 1 and the reference database."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dot11.mac import MacAddress
from repro.core.database import ReferenceDatabase
from repro.core.detection import WindowCandidate
from repro.core.matcher import batch_match_signatures
from repro.core.signature import Signature

A = MacAddress.parse("00:13:e8:00:00:0a")
B = MacAddress.parse("00:18:f8:00:00:0b")
C = MacAddress.parse("00:14:a4:00:00:0c")


def sig(histograms: dict[str, list[float]], weights: dict[str, float] | None = None) -> Signature:
    arrays = {k: np.array(v, dtype=float) for k, v in histograms.items()}
    if weights is None:
        weights = {k: 1.0 / len(arrays) for k in arrays}
    return Signature(histograms=arrays, weights=weights)


def score_row(candidate: Signature, database: ReferenceDatabase) -> dict:
    """The candidate's score row, keyed by reference device."""
    (row,) = batch_match_signatures([candidate], database)
    return dict(zip(database.devices, row.tolist()))


def best(candidate: Signature, database: ReferenceDatabase) -> tuple:
    """The identification rule, ``WindowCandidate.best``, on the
    candidate's score row."""
    (row,) = batch_match_signatures([candidate], database)
    matched = WindowCandidate(
        device=C,
        window_index=0,
        signatures={C: candidate},
        scores=row,
        references=tuple(database.devices),
    )
    return matched.best


class TestDatabase:
    def test_add_get_remove(self):
        database = ReferenceDatabase()
        signature = sig({"Data": [1, 0]})
        database.add(A, signature)
        assert A in database
        assert database.get(A) is signature
        assert len(database) == 1
        database.remove(A)
        assert A not in database

    def test_from_training(self, small_office_trace):
        from repro.core.parameters import InterArrivalTime
        from repro.core.signature import SignatureBuilder

        builder = SignatureBuilder(InterArrivalTime(), min_observations=50)
        database = ReferenceDatabase.from_training_table(
            builder, small_office_trace.table()
        )
        assert len(database) >= 3  # three clients (+ possibly the AP)


class TestAlgorithm1:
    def test_perfect_match_scores_total_weight(self):
        database = ReferenceDatabase()
        database.add(A, sig({"Data": [1, 0, 0], "RTS": [0, 1, 0]},
                            {"Data": 0.75, "RTS": 0.25}))
        candidate = sig({"Data": [1, 0, 0], "RTS": [0, 1, 0]})
        scores = score_row(candidate, database)
        assert scores[A] == pytest.approx(1.0)

    def test_reference_weights_used(self):
        database = ReferenceDatabase()
        # Reference weights Data heavily; candidate matches only RTS.
        database.add(A, sig({"Data": [1, 0], "RTS": [0, 1]},
                            {"Data": 0.9, "RTS": 0.1}))
        candidate = sig({"Data": [0, 1], "RTS": [0, 1]})
        scores = score_row(candidate, database)
        assert scores[A] == pytest.approx(0.1)

    def test_missing_reference_type_contributes_zero(self):
        database = ReferenceDatabase()
        database.add(A, sig({"Data": [1, 0]}))
        candidate = sig({"Probe Request": [1, 0]})
        assert score_row(candidate, database)[A] == 0.0

    def test_ranking(self):
        database = ReferenceDatabase()
        database.add(A, sig({"Data": [1, 0, 0, 0]}))
        database.add(B, sig({"Data": [0.5, 0.5, 0, 0]}))
        database.add(C, sig({"Data": [0, 0, 0, 1]}))
        candidate = sig({"Data": [0.9, 0.1, 0, 0]})
        scores = score_row(candidate, database)
        assert scores[A] > scores[B] > scores[C]

    def test_empty_database(self):
        assert score_row(sig({"Data": [1, 0]}), ReferenceDatabase()) == {}


class TestBestMatch:
    def test_winner(self):
        database = ReferenceDatabase()
        database.add(A, sig({"Data": [1, 0]}))
        database.add(B, sig({"Data": [0, 1]}))
        winner, score = best(sig({"Data": [0.95, 0.05]}), database)
        assert winner == A
        assert score > 0.9

    def test_empty_database(self):
        winner, score = best(sig({"Data": [1, 0]}), ReferenceDatabase())
        assert winner is None and score == 0.0

    def test_deterministic_tie_break(self):
        database = ReferenceDatabase()
        database.add(B, sig({"Data": [1, 0]}))
        database.add(A, sig({"Data": [1, 0]}))
        winner, _score = best(sig({"Data": [1, 0]}), database)
        assert winner == B  # first registered wins ties
