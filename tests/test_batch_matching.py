"""Equivalence tests for the vectorized batch matching engine.

The batch matrix formulation (packed database + matrix products) must
reproduce the per-pair Algorithm 1 loop (``tests/oracles.py``): within
float rounding (atol 1e-9) for cosine, bit for bit for intersection and
Bhattacharyya, within 1e-12 for chi-square and Jensen–Shannon — for one
candidate per :func:`batch_match_signatures` call and for many.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dot11.mac import MacAddress, vendor_mac
from repro.core.database import ReferenceDatabase
from repro.core.matcher import batch_match_signatures
from repro.core.signature import Signature
from repro.core.similarity import (
    bhattacharyya_similarity,
    chi_square_similarity,
    cosine_similarity,
    intersection_similarity,
    jensen_shannon_similarity,
    normalize_rows,
    unit_cosine_product,
)
from tests.oracles import SCALAR_MEASURES, first_maximum, scalar_match

FRAME_TYPES = ("Data", "Beacon", "RTS", "Probe Request")


def random_signature(rng: np.random.Generator, bins: int = 40) -> Signature:
    """A signature over a random subset of FRAME_TYPES."""
    present = [f for f in FRAME_TYPES if rng.random() < 0.7] or [FRAME_TYPES[0]]
    counts = {f: int(rng.integers(1, 60)) for f in present}
    total = sum(counts.values())
    histograms = {}
    for ftype in present:
        values = rng.random(bins)
        values[rng.random(bins) < 0.5] = 0.0  # sparse support, like real bins
        top = values.sum()
        histograms[ftype] = values / top if top else values
    return Signature(
        histograms=histograms,
        weights={f: counts[f] / total for f in present},
        observation_counts=counts,
    )


def random_database(
    rng: np.random.Generator, devices: int = 30, bins: int = 40
) -> ReferenceDatabase:
    database = ReferenceDatabase()
    for i in range(devices):
        database.add(vendor_mac("00:13:e8", i + 1), random_signature(rng, bins))
    return database


def forced_scalar(candidate, database):
    """Algorithm 1 through the per-pair oracle loop."""
    return scalar_match(candidate, database, cosine_similarity)


#: The non-cosine measures, with the tolerance their row reductions keep
#: against the per-pair oracle: 0 (bit for bit) where the 1-D sum and the
#: row sum add the same elements, 1e-12 where the oracle sums a masked
#: subset.
NON_COSINE = pytest.mark.parametrize(
    "measure, tolerance",
    [
        pytest.param(intersection_similarity, 0.0, id="intersection"),
        pytest.param(chi_square_similarity, 1e-12, id="chi2"),
        pytest.param(bhattacharyya_similarity, 0.0, id="bhattacharyya"),
        pytest.param(jensen_shannon_similarity, 1e-12, id="jensen-shannon"),
    ],
)


def assert_scores_agree(actual, expected, tolerance):
    actual, expected = list(actual), list(expected)
    if tolerance:
        np.testing.assert_allclose(actual, expected, rtol=0, atol=tolerance)
    else:
        assert actual == expected


class TestMatchSignatureFastPath:
    def test_matches_scalar_loop_on_random_databases(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            database = random_database(rng)
            for _ in range(10):
                candidate = random_signature(rng)
                (fast,) = batch_match_signatures([candidate], database)
                slow = forced_scalar(candidate, database)
                assert list(slow) == database.devices  # the column order
                np.testing.assert_allclose(fast, list(slow.values()), atol=1e-9)

    @NON_COSINE
    def test_non_cosine_measure_uses_scalar_path(self, measure, tolerance):
        """Non-cosine measures run on the packed matrices and keep the
        per-pair loop's numbers."""
        rng = np.random.default_rng(1)
        database = random_database(rng, devices=5)
        candidate = random_signature(rng)
        (scores,) = batch_match_signatures([candidate], database, measure)
        expected = scalar_match(candidate, database, SCALAR_MEASURES[measure])
        assert list(expected) == database.devices
        assert_scores_agree(scores.tolist(), expected.values(), tolerance)

    def test_best_match_agrees_with_scalar(self):
        rng = np.random.default_rng(2)
        database = random_database(rng, devices=20)
        for _ in range(10):
            candidate = random_signature(rng)
            (row,) = batch_match_signatures([candidate], database)
            column = int(row.argmax())
            winner, score = database.devices[column], float(row[column])
            slow = forced_scalar(candidate, database)
            _slow_winner, slow_score = first_maximum(slow)
            # argmax up to float noise: the winner's scores must agree
            assert score == pytest.approx(slow[winner], abs=1e-9)
            assert slow_score <= score + 1e-9

    def test_bin_mismatch_raises_like_scalar(self):
        database = ReferenceDatabase()
        database.add(
            vendor_mac("00:13:e8", 1),
            Signature(histograms={"Data": np.array([1.0, 0.0])}, weights={"Data": 1.0}),
        )
        candidate = Signature(
            histograms={"Data": np.array([1.0, 0.0, 0.0])}, weights={"Data": 1.0}
        )
        with pytest.raises(ValueError):
            batch_match_signatures([candidate], database)
        with pytest.raises(ValueError):
            forced_scalar(candidate, database)

    @pytest.mark.parametrize("measure", [cosine_similarity, intersection_similarity])
    @pytest.mark.parametrize("beside", ["alone", "first", "second"])
    def test_bin_mismatch_error_does_not_depend_on_the_batch(self, measure, beside):
        """A 4-bin candidate against a 5-bin store raises one error,
        whatever else the batch holds."""
        database = ReferenceDatabase()
        database.add(
            vendor_mac("00:13:e8", 1),
            Signature(histograms={"Data": np.full(5, 0.2)}, weights={"Data": 1.0}),
        )
        narrow = Signature(histograms={"Data": np.full(4, 0.25)}, weights={"Data": 1.0})
        fitting = Signature(histograms={"Data": np.full(5, 0.2)}, weights={"Data": 1.0})
        candidates = {
            "alone": [narrow], "first": [narrow, fitting], "second": [fitting, narrow]
        }[beside]
        message = (
            "frame type 'Data': candidate histogram has 4 bins, "
            "the reference database holds 5"
        )
        with pytest.raises(ValueError, match=message):
            batch_match_signatures(candidates, database, measure)


class TestBatchMatchSignatures:
    def test_rows_equal_match_signature(self):
        rng = np.random.default_rng(3)
        database = random_database(rng)
        candidates = [random_signature(rng) for _ in range(25)]
        matrix = batch_match_signatures(candidates, database)
        assert matrix.shape == (25, len(database))
        for row, candidate in zip(matrix, candidates):
            np.testing.assert_allclose(
                row, batch_match_signatures([candidate], database)[0], atol=1e-9
            )
            np.testing.assert_allclose(
                row, list(forced_scalar(candidate, database).values()), atol=1e-9
            )

    @NON_COSINE
    def test_non_cosine_fallback_matrix(self, measure, tolerance):
        rng = np.random.default_rng(4)
        database = random_database(rng, devices=6)
        candidates = [random_signature(rng) for _ in range(4)]
        matrix = batch_match_signatures(candidates, database, measure)
        for row, candidate in zip(matrix, candidates):
            expected = scalar_match(candidate, database, SCALAR_MEASURES[measure])
            assert_scores_agree(row.tolist(), expected.values(), tolerance)

    def test_empty_database_and_empty_candidates(self):
        rng = np.random.default_rng(5)
        database = random_database(rng, devices=4)
        assert batch_match_signatures([], database).shape == (0, 4)
        empty = ReferenceDatabase()
        candidates = [random_signature(rng)]
        assert batch_match_signatures(candidates, empty).shape == (1, 0)

    def test_candidate_only_frame_type_contributes_zero(self):
        database = ReferenceDatabase()
        database.add(
            vendor_mac("00:13:e8", 1),
            Signature(histograms={"Data": np.array([1.0, 0.0])}, weights={"Data": 1.0}),
        )
        candidate = Signature(
            histograms={"CTS": np.array([0.5, 0.5])}, weights={"CTS": 1.0}
        )
        assert batch_match_signatures([candidate], database)[0, 0] == 0.0


class TestPackedDatabase:
    def test_layout_matches_insertion_order(self):
        rng = np.random.default_rng(6)
        database = random_database(rng, devices=8)
        packed = database.packed()
        assert packed is not None
        assert list(packed.devices) == database.devices
        for ftype, matrix in packed.frequencies.items():
            assert matrix.shape == (8, packed.bin_count(ftype))
            for row, device in enumerate(packed.devices):
                signature = database.get(device)
                histogram = signature.histogram(ftype)
                if histogram is None:
                    assert not matrix[row].any()
                    assert packed.weights[ftype][row] == 0.0
                else:
                    np.testing.assert_array_equal(matrix[row], histogram)
                    assert packed.weights[ftype][row] == signature.weight(ftype)

    def test_cache_invalidation_on_add_and_remove(self):
        rng = np.random.default_rng(7)
        database = random_database(rng, devices=3)
        first = database.packed()
        assert database.packed() is first  # cached
        database.add(vendor_mac("00:13:e8", 99), random_signature(rng))
        second = database.packed()
        assert second is not first and len(second.devices) == 4
        database.remove(vendor_mac("00:13:e8", 99))
        assert len(database.packed().devices) == 3

    def test_empty_database_packs_to_none(self):
        assert ReferenceDatabase().packed() is None

    def test_width_conflict_is_refused_so_every_database_matches(self):
        from tests.test_database import assert_add_refused

        database = ReferenceDatabase()
        database.add(
            vendor_mac("00:13:e8", 1),
            Signature(histograms={"Data": np.array([1.0, 0.0])}, weights={"Data": 1.0}),
        )
        assert_add_refused(
            database,
            vendor_mac("00:13:e8", 2),
            Signature(
                histograms={"Data": np.array([1.0, 0.0, 0.0])}, weights={"Data": 1.0}
            ),
        )
        candidate = Signature(
            histograms={"Beacon": np.array([1.0, 0.0])}, weights={"Beacon": 1.0}
        )
        for measure in SCALAR_MEASURES:
            matrix = batch_match_signatures([candidate], database, measure)
            assert matrix.tolist() == [[0.0]]


class TestVectorizedCosineKernels:
    def test_unit_cosine_product_matches_scalar(self):
        rng = np.random.default_rng(8)
        candidates = rng.random((7, 12))
        references = rng.random((5, 12))
        references[2] = 0.0  # zero-norm row convention
        matrix = unit_cosine_product(
            normalize_rows(candidates), normalize_rows(references)
        )
        for i in range(7):
            for j in range(5):
                assert matrix[i, j] == pytest.approx(
                    cosine_similarity(candidates[i], references[j]), abs=1e-12
                )

    def test_normalize_rows_keeps_zero_rows(self):
        rows = np.array([[3.0, 4.0], [0.0, 0.0]])
        unit = normalize_rows(rows)
        np.testing.assert_allclose(unit[0], [0.6, 0.8])
        assert not unit[1].any()

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            unit_cosine_product(np.ones((2, 3)), np.ones((2, 4)))

    def test_cosine_totals_equal_a_sum_started_from_zeros(self):
        """The first weighted product stands in for ``zeros + product``:
        same bits, and no negative zero, for candidates with and
        without each frame type."""
        rng = np.random.default_rng(26)
        database = random_database(rng)
        candidates = [random_signature(rng) for _ in range(9)]
        candidates.append(
            Signature(histograms={"ATIM": np.ones(40) / 40}, weights={"ATIM": 1.0})
        )
        packed = database.packed()
        expected = np.zeros((len(candidates), len(database)))
        for ftype in sorted(packed.normalized):
            rows = np.zeros((len(candidates), 40))
            for row, candidate in enumerate(candidates):
                if ftype in candidate.histograms:
                    rows[row] = candidate.histograms[ftype]
            scores = unit_cosine_product(normalize_rows(rows), packed.normalized[ftype])
            scores *= packed.weights[ftype]
            expected += scores
        matrix = batch_match_signatures(candidates, database)
        assert np.array_equal(matrix, expected)
        assert not np.signbit(matrix).any()
        unknown = batch_match_signatures(candidates[-1:], database)
        assert unknown.shape == (1, len(database)) and not unknown.any()
