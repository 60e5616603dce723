"""The detection phase: similarity and identification tests.

Implements Section IV-B's protocol: the validation trace is cut into
detection windows (5 minutes in the paper); each window yields one
candidate signature per device active enough to clear the minimum
observation count; every candidate is matched against the reference
database (Algorithm 1) and the two tests are scored across a threshold
sweep.  Each :class:`WindowCandidate` keeps its row of the score
matrix, and both tests count on the stacked rows with one ``np.sort``
and one ``np.searchsorted`` over all thresholds (DESIGN.md §8).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.dot11.mac import MacAddress
from repro.core.database import ReferenceDatabase
from repro.core.matcher import batch_match_signatures
from repro.core.metrics import (
    CurvePoint,
    IdentificationCurve,
    IdentificationPoint,
    SimilarityCurve,
)
from repro.core.signature import Signature, SignatureBuilder
from repro.core.similarity import SimilarityMeasure, cosine_similarity
from repro.traces.table import window_bounds
from repro.traces.trace import Trace

#: Default threshold sweep: fine steps near the top where cosine
#: similarities concentrate.
DEFAULT_THRESHOLDS: tuple[float, ...] = tuple(
    round(t, 4) for t in [i / 200 for i in range(0, 201)]
)


@dataclass(frozen=True)
class DetectionConfig:
    """Evaluation protocol parameters (paper defaults)."""

    window_s: float = 300.0
    min_observations: int = 50
    thresholds: tuple[float, ...] = DEFAULT_THRESHOLDS
    measure: SimilarityMeasure = cosine_similarity


@dataclass(slots=True)
class WindowCandidate:
    """One candidate: a device's signature in one detection window."""

    device: MacAddress
    window_index: int
    #: The window's signatures, ``device``'s among them (a live
    #: window's :class:`~repro.core.signature.SignatureBlock`).
    signatures: Mapping[MacAddress, Signature]
    #: This candidate's row of the score matrix (empty until matched).
    scores: np.ndarray = field(default_factory=lambda: np.empty(0))
    #: The reference devices, in ``scores`` column order.
    references: tuple[MacAddress, ...] = ()

    @property
    def signature(self) -> Signature:
        """This candidate's signature, looked up in its window's."""
        return self.signatures[self.device]

    @property
    def best(self) -> tuple[MacAddress | None, float]:
        """Argmax reference and its similarity ((None, 0.0) if empty).

        Ties break towards the earliest-registered reference (the
        first maximum of the row), the rule of every identification
        site (DESIGN.md §8).
        """
        if not self.references:
            return None, 0.0
        column = int(self.scores.argmax())
        return self.references[column], float(self.scores[column])


def matched_candidates(
    signatures: Mapping[MacAddress, Signature],
    scores: np.ndarray,
    database: ReferenceDatabase,
    window_index: int = 0,
) -> list[WindowCandidate]:
    """One window's candidates, each holding its row of ``scores``.

    ``scores`` is the :func:`~repro.core.matcher.batch_match_signatures`
    matrix of ``signatures`` (in their order) against ``database``.
    """
    references = tuple(database.devices)
    return [
        WindowCandidate(device, window_index, signatures, row, references)
        for device, row in zip(signatures, scores)
    ]


def reference_axis(
    candidates: Sequence[WindowCandidate], database: ReferenceDatabase
) -> tuple[MacAddress, ...]:
    """``database``'s devices, checked to be every candidate's column order."""
    references = tuple(database.devices)
    if any(candidate.references != references for candidate in candidates):
        raise ValueError("candidates were not matched against this database")
    return references


def _columnar_window_candidates(
    validation: Trace, builder: SignatureBuilder, config: DetectionConfig
) -> list[WindowCandidate]:
    """All window candidates of a validation trace, unmatched (DESIGN.md §6).

    Observations for the *whole* validation trace are extracted and
    binned once; each detection window is then an ``np.searchsorted``
    slice of that batch.  A window's first ``table_memory`` rows are
    excluded so a channel-clock observation never reaches back across
    the window boundary — exactly reproducing per-window extraction.
    """
    table = validation.table()
    observed = builder.parameter.observe_table(table)
    bin_idx = builder.bins.index_many(observed.values)
    memory = builder.parameter.table_memory
    candidates: list[WindowCandidate] = []
    for window_index, (lo, hi) in enumerate(
        window_bounds(table.timestamp_us, config.window_s)
    ):
        obs_lo, obs_hi = np.searchsorted(
            observed.positions, (lo + memory, hi), side="left"
        )
        signatures = builder.build_binned(
            observed.sender_idx[obs_lo:obs_hi],
            observed.ftype_idx[obs_lo:obs_hi],
            bin_idx[obs_lo:obs_hi],
            table.senders,
            table.ftype_keys,
        )
        candidates.extend(
            WindowCandidate(device, window_index, signatures) for device in signatures
        )
    return candidates


def extract_window_candidates(
    validation: Trace,
    builder: SignatureBuilder,
    database: ReferenceDatabase,
    config: DetectionConfig,
) -> list[WindowCandidate]:
    """Build and match all window candidates of a validation trace.

    Signature construction runs on the trace's
    :class:`~repro.traces.table.FrameTable`: one vectorized
    observation/binning pass over the whole validation trace, O(log n)
    window cuts, one ``np.bincount`` scatter per window.  Candidate
    signatures are then matched with ``config.measure`` in a single
    :func:`~repro.core.matcher.batch_match_signatures` call — for the
    cosine measure that is one matrix–matrix product per frame type
    over every (window, device) candidate at once — and each candidate
    keeps its row of the result.
    """
    candidates = _columnar_window_candidates(validation, builder, config)
    scores = batch_match_signatures(
        [candidate.signature for candidate in candidates], database, config.measure
    )
    references = tuple(database.devices)
    for candidate, row in zip(candidates, scores):
        candidate.scores = row
        candidate.references = references
    return candidates


def _score_matrix(
    candidates: list[WindowCandidate], database: ReferenceDatabase
) -> tuple[np.ndarray, np.ndarray]:
    """The candidates' stacked score rows and true columns (−1: unknown)."""
    references = reference_axis(candidates, database)
    columns = {device: column for column, device in enumerate(references)}
    truth = np.array([columns.get(c.device, -1) for c in candidates], dtype=np.intp)
    rows = [candidate.scores for candidate in candidates]
    return np.stack(rows) if rows else np.empty((0, len(references))), truth


def _at_or_above(scores: np.ndarray, thresholds: tuple[float, ...]) -> list[int]:
    """How many of ``scores`` are ≥ each threshold."""
    ordered = np.sort(scores, axis=None)
    return (ordered.size - np.searchsorted(ordered, thresholds, side="left")).tolist()


@dataclass
class SimilarityOutcome:
    """Similarity-test result: the full curve plus bookkeeping."""

    curve: SimilarityCurve
    known_candidates: int
    total_candidates: int

    @property
    def auc(self) -> float:
        """Area under the similarity curve (Table II)."""
        return self.curve.auc


def evaluate_similarity(
    candidates: list[WindowCandidate],
    database: ReferenceDatabase,
    config: DetectionConfig,
) -> SimilarityOutcome:
    """Score the similarity test across the threshold sweep.

    TPR: fraction of known candidates whose returned set (similarity ≥
    T) contains the true device.  FPR: wrong references returned,
    normalised by the N−1 wrong references available per candidate.
    On the known candidates' rows, the true positives are the
    true-device scores ≥ T and the false positives all other scores ≥ T.
    """
    scores, truth = _score_matrix(candidates, database)
    known = truth >= 0
    known_count = int(known.sum())
    points: list[CurvePoint] = []
    if known_count:
        hits = _at_or_above(scores[known, truth[known]], config.thresholds)
        returned = _at_or_above(scores[known], config.thresholds)
        capacity = known_count * max(len(database) - 1, 1)
        points = [
            CurvePoint(threshold=t, tpr=tp / known_count, fpr=(n - tp) / capacity)
            for t, tp, n in zip(config.thresholds, hits, returned)
        ]
    return SimilarityOutcome(
        curve=SimilarityCurve(points=points),
        known_candidates=known_count,
        total_candidates=len(candidates),
    )


@dataclass
class IdentificationOutcome:
    """Identification-test result across the acceptance sweep."""

    curve: IdentificationCurve
    known_candidates: int
    total_candidates: int

    def ratio_at_fpr(self, fpr_budget: float) -> float:
        """Identification ratio at an FPR budget (Table III)."""
        return self.curve.ratio_at_fpr(fpr_budget)


def evaluate_identification(
    candidates: list[WindowCandidate],
    database: ReferenceDatabase,
    config: DetectionConfig,
) -> IdentificationOutcome:
    """Score the identification test across acceptance thresholds.

    A candidate is *identified* as the argmax reference (the first
    maximum of its row) if that best similarity clears the acceptance
    threshold.  The identification ratio counts known candidates
    identified correctly; the FPR counts candidates (known or not)
    identified as a wrong device.
    """
    scores, truth = _score_matrix(candidates, database)
    known_total = int((truth >= 0).sum())
    points: list[IdentificationPoint] = []
    if candidates:
        # Each row's first maximum (no picks at all without references).
        picks = scores.argmax(axis=1) if scores.size else np.empty(0, dtype=np.intp)
        best = scores[np.arange(picks.size), picks]
        right = picks == truth[: picks.size]
        correct = _at_or_above(best[right], config.thresholds)
        wrong = _at_or_above(best[~right], config.thresholds)
        points = [
            IdentificationPoint(
                threshold=threshold,
                identification_ratio=hits / known_total if known_total else 0.0,
                fpr=misses / len(candidates),
            )
            for threshold, hits, misses in zip(config.thresholds, correct, wrong)
        ]
    return IdentificationOutcome(
        curve=IdentificationCurve(points=points),
        known_candidates=known_total,
        total_candidates=len(candidates),
    )
