"""Unit tests for the detection phase (similarity & identification).

Both tests count on the stacked score matrix; every curve they produce
must equal, point for point (``==``), the per-threshold loops of
``tests/oracles.py`` — on simulated presets and on hand-made score rows
built to hit the edge cases (empty database, unknown candidates, ties,
scores equal to a threshold, unsorted thresholds).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.database import ReferenceDatabase
from repro.core.detection import (
    DetectionConfig,
    WindowCandidate,
    evaluate_identification,
    evaluate_similarity,
    extract_window_candidates,
)
from repro.core.parameters import ALL_PARAMETERS, FrameSize
from repro.core.signature import Signature, SignatureBuilder
from repro.core.similarity import similarity_measure_by_name
from repro.dot11.mac import MacAddress
from repro.evaluation import SimulationCache
from repro.traces.table import FrameTable
from repro.traces.trace import Trace
from tests import oracles
from tests.conftest import make_data_capture

A = MacAddress.parse("00:13:e8:00:00:0a")
B = MacAddress.parse("00:18:f8:00:00:0b")
C = MacAddress.parse("00:14:a4:00:00:0c")
AP = MacAddress.parse("00:0f:b5:00:00:01")


def _distinct_trace(duration_s: float = 120.0) -> Trace:
    """A, B, C transmit at distinct sizes: perfectly separable."""
    frames = []
    sizes = {A: 200, B: 900, C: 1800}
    t = 0.0
    index = 0
    while t < duration_s * 1e6:
        sender = (A, B, C)[index % 3]
        frames.append(make_data_capture(t, sender, AP, size=sizes[sender]))
        index += 1
        t += 1e5
    return Trace.from_frames(frames, name="distinct")


@pytest.fixture()
def separable_setup():
    trace = _distinct_trace()
    config = DetectionConfig(window_s=20.0, min_observations=20)
    builder = SignatureBuilder(FrameSize(), min_observations=20)
    split = trace.split(training_s=30.0)
    database = ReferenceDatabase.from_training_table(builder, split.training.table())
    candidates = extract_window_candidates(split.validation, builder, database, config)
    return database, candidates, config


class TestCandidateExtraction:
    def test_one_candidate_per_device_per_window(self, separable_setup):
        database, candidates, _config = separable_setup
        windows = {c.window_index for c in candidates}
        for window in windows:
            devices = [c.device for c in candidates if c.window_index == window]
            assert len(devices) == len(set(devices))

    def test_similarities_populated(self, separable_setup):
        database, candidates, _config = separable_setup
        for candidate in candidates:
            assert candidate.references == tuple(database.devices)
            assert candidate.scores.shape == (len(database),)


class TestSimilarityTest:
    def test_perfectly_separable_auc(self, separable_setup):
        database, candidates, config = separable_setup
        outcome = evaluate_similarity(candidates, database, config)
        assert outcome.auc > 0.99
        assert outcome.known_candidates == outcome.total_candidates

    def test_low_threshold_returns_everyone(self, separable_setup):
        database, candidates, config = separable_setup
        outcome = evaluate_similarity(candidates, database, config)
        # The lowest-threshold point has TPR 1 and near-max FPR.
        max_fpr_point = max(outcome.curve.points, key=lambda p: p.fpr)
        assert max_fpr_point.tpr == pytest.approx(1.0)
        assert max_fpr_point.fpr == pytest.approx(1.0)

    def test_high_threshold_returns_nothing_wrong(self, separable_setup):
        database, candidates, config = separable_setup
        outcome = evaluate_similarity(candidates, database, config)
        top = min(outcome.curve.points, key=lambda p: p.fpr)
        assert top.fpr == pytest.approx(0.0)


class TestIdentificationTest:
    def test_perfectly_separable_identification(self, separable_setup):
        database, candidates, config = separable_setup
        outcome = evaluate_identification(candidates, database, config)
        assert outcome.ratio_at_fpr(0.01) == pytest.approx(1.0)

    def test_unknown_candidates_counted_in_fpr(self):
        # Train only on A; B appears at validation with A-like sizes.
        frames = []
        t = 0.0
        for _ in range(60):
            frames.append(make_data_capture(t, A, AP, size=500))
            t += 1e5
        for _ in range(60):
            frames.append(make_data_capture(t, B, AP, size=500))
            t += 1e5
        config = DetectionConfig(window_s=6.0, min_observations=20)
        builder = SignatureBuilder(FrameSize(), min_observations=20)
        database = ReferenceDatabase.from_training_table(
            builder, FrameTable.from_frames(frames[:60])
        )
        candidates = extract_window_candidates(
            Trace.from_frames(frames[60:]), builder, database, config
        )
        outcome = evaluate_identification(candidates, database, config)
        # B is unknown but matches A perfectly: at low thresholds it is
        # identified as A, a false positive with zero known candidates.
        assert outcome.known_candidates == 0
        zero_threshold = outcome.curve.points[0]
        assert zero_threshold.fpr > 0

    def test_acceptance_threshold_reduces_fpr(self, separable_setup):
        database, candidates, config = separable_setup
        outcome = evaluate_identification(candidates, database, config)
        fprs = [p.fpr for p in outcome.curve.points]
        assert fprs == sorted(fprs, reverse=True)  # higher T, lower FPR


def assert_tests_equal_oracles(candidates, database, config):
    """Run both tests and their oracles; every curve point must be ``==``."""
    similarity = evaluate_similarity(candidates, database, config)
    expected = oracles.similarity_test(candidates, database, config)
    assert similarity.curve.points == expected.curve.points
    assert similarity.known_candidates == expected.known_candidates
    assert similarity.total_candidates == expected.total_candidates
    identification = evaluate_identification(candidates, database, config)
    expected = oracles.identification_test(candidates, database, config)
    assert identification.curve.points == expected.curve.points
    assert identification.known_candidates == expected.known_candidates
    assert identification.total_candidates == expected.total_candidates
    return similarity, identification


@pytest.fixture(scope="module")
def preset_cache() -> SimulationCache:
    """One half-scale simulation per preset across this module."""
    return SimulationCache()


class TestOracleEquivalence:
    @pytest.mark.parametrize("measure", ["cosine", "intersection"])
    @pytest.mark.parametrize("parameter", ALL_PARAMETERS, ids=lambda p: p.name)
    @pytest.mark.parametrize("scenario", ["lecture-hall", "mobile-commuters"])
    def test_curves_equal_oracles(self, preset_cache, scenario, parameter, measure):
        built = preset_cache.built_scenario(scenario, scale=0.5)
        meta = built.metadata
        config = DetectionConfig(
            window_s=meta.window_s,
            min_observations=meta.min_observations,
            measure=similarity_measure_by_name(measure),
        )
        builder = SignatureBuilder(parameter, min_observations=config.min_observations)
        split = built.simulate().split(meta.training_s)
        database = ReferenceDatabase.from_training_table(builder, split.training.table())
        candidates = extract_window_candidates(split.validation, builder, database, config)
        similarity, identification = assert_tests_equal_oracles(
            candidates, database, config
        )
        assert similarity.known_candidates > 0
        assert len(identification.curve.points) == len(config.thresholds)


#: A signature for hand-made candidates; the tests read only score rows.
SIGNATURE = Signature(
    histograms={"Data": np.array([1.0, 0.0])},
    weights={"Data": 1.0},
    observation_counts={"Data": 50},
)


def reference_database(*devices: MacAddress) -> ReferenceDatabase:
    database = ReferenceDatabase()
    for device in devices:
        database.add(device, SIGNATURE)
    return database


def scored(database: ReferenceDatabase, *rows) -> list[WindowCandidate]:
    """Matched candidates from (device, score row) pairs."""
    references = tuple(database.devices)
    return [
        WindowCandidate(
            device=device,
            window_index=index,
            signatures={device: SIGNATURE},
            scores=np.array(row, dtype=np.float64),
            references=references,
        )
        for index, (device, row) in enumerate(rows)
    ]


class TestEdgeCasesEqualOracles:
    def test_empty_reference_database(self):
        config = DetectionConfig(window_s=20.0, min_observations=20)
        builder = SignatureBuilder(FrameSize(), min_observations=20)
        validation = _distinct_trace().split(training_s=30.0).validation
        empty = ReferenceDatabase()
        candidates = extract_window_candidates(validation, builder, empty, config)
        assert candidates and all(c.scores.shape == (0,) for c in candidates)
        similarity, identification = assert_tests_equal_oracles(
            candidates, empty, config
        )
        assert similarity.curve.points == []
        assert {p.fpr for p in identification.curve.points} == {0.0}

    def test_no_candidates(self, separable_setup):
        database, _candidates, config = separable_setup
        similarity, identification = assert_tests_equal_oracles([], database, config)
        assert similarity.curve.points == identification.curve.points == []

    def test_every_candidate_unknown(self):
        database = reference_database(A, B)
        candidates = scored(database, (C, [0.8, 0.3]), (AP, [0.1, 0.6]))
        similarity, identification = assert_tests_equal_oracles(
            candidates, database, DetectionConfig()
        )
        assert similarity.known_candidates == identification.known_candidates == 0
        assert similarity.curve.points == []
        assert identification.curve.points[0].fpr == 1.0

    def test_unknown_beside_known(self):
        database = reference_database(A, B, C)
        candidates = scored(
            database,
            (A, [0.9, 0.2, 0.4]),
            (AP, [0.7, 0.1, 0.0]),
            (B, [0.6, 0.5, 0.1]),
        )
        assert_tests_equal_oracles(candidates, database, DetectionConfig())

    @pytest.mark.parametrize("claimed", [A, B])
    def test_tie_goes_to_earliest_registered_reference(self, claimed):
        database = reference_database(C, A, B)
        candidates = scored(database, (claimed, [0.5, 0.9, 0.9]))
        config = DetectionConfig(thresholds=(0.9,))
        _similarity, identification = assert_tests_equal_oracles(
            candidates, database, config
        )
        (point,) = identification.curve.points
        # A registered before B, so the tie picks A.
        assert (point.identification_ratio, point.fpr) == (
            (1.0, 0.0) if claimed == A else (0.0, 1.0)
        )

    def test_score_equal_to_threshold_counts(self):
        database = reference_database(A, B)
        candidates = scored(database, (A, [0.75, 0.25]))
        config = DetectionConfig(thresholds=(0.25, 0.75, 0.755))
        similarity, identification = assert_tests_equal_oracles(
            candidates, database, config
        )
        by_threshold = {p.threshold: p for p in similarity.curve.points}
        assert (by_threshold[0.25].tpr, by_threshold[0.25].fpr) == (1.0, 1.0)
        assert (by_threshold[0.75].tpr, by_threshold[0.75].fpr) == (1.0, 0.0)
        assert by_threshold[0.755].tpr == 0.0
        ratios = [p.identification_ratio for p in identification.curve.points]
        assert ratios == [1.0, 1.0, 0.0]

    @pytest.mark.parametrize(
        "thresholds",
        [(0.9, 0.1, 0.5, 0.0, 1.0), (0.5, 0.5, 0.2, 0.5, 0.2), (1, 0, 0.5)],
        ids=["unsorted", "duplicates", "ints"],
    )
    def test_unsorted_or_duplicate_thresholds(self, separable_setup, thresholds):
        database, candidates, _config = separable_setup
        config = DetectionConfig(thresholds=thresholds)
        _similarity, identification = assert_tests_equal_oracles(
            candidates, database, config
        )
        assert [p.threshold for p in identification.curve.points] == list(thresholds)

    def test_candidates_from_another_database_rejected(self, separable_setup):
        database, candidates, config = separable_setup
        other = reference_database(*reversed(database.devices))
        with pytest.raises(ValueError, match="not matched against this database"):
            evaluate_similarity(candidates, other, config)
        with pytest.raises(ValueError, match="not matched against this database"):
            evaluate_identification(candidates, other, config)
