"""The detection phase: similarity and identification tests.

Implements Section IV-B's protocol: the validation trace is cut into
detection windows (5 minutes in the paper); each window yields one
candidate signature per device active enough to clear the minimum
observation count; every candidate is matched against the reference
database (Algorithm 1) and the two tests are scored across a threshold
sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    signature: Signature
    similarities: dict[MacAddress, float] = field(default_factory=dict)


def _columnar_window_candidates(
    validation: Trace, builder: SignatureBuilder, config: DetectionConfig
) -> list[WindowCandidate]:
    """All window candidates of a validation trace (DESIGN.md §6).

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
        for device, signature in signatures.items():
            candidates.append(
                WindowCandidate(
                    device=device, window_index=window_index, signature=signature
                )
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
    over every (window, device) candidate at once.
    """
    candidates = _columnar_window_candidates(validation, builder, config)
    scores = batch_match_signatures(
        [candidate.signature for candidate in candidates], database, config.measure
    )
    devices = database.devices
    for candidate, row in zip(candidates, scores):
        candidate.similarities = dict(zip(devices, row.tolist()))
    return candidates


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
    """
    reference_count = len(database)
    known = [c for c in candidates if c.device in database]
    points: list[CurvePoint] = []
    for threshold in config.thresholds:
        true_positives = 0
        false_positives = 0
        false_capacity = 0
        for candidate in known:
            returned = {
                device
                for device, sim in candidate.similarities.items()
                if sim >= threshold
            }
            if candidate.device in returned:
                true_positives += 1
            false_positives += len(returned - {candidate.device})
            false_capacity += max(reference_count - 1, 1)
        if not known:
            continue
        points.append(
            CurvePoint(
                threshold=threshold,
                tpr=true_positives / len(known),
                fpr=false_positives / false_capacity,
            )
        )
    return SimilarityOutcome(
        curve=SimilarityCurve(points=points),
        known_candidates=len(known),
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

    A candidate is *identified* as the argmax reference if that best
    similarity clears the acceptance threshold.  The identification
    ratio counts known candidates identified correctly; the FPR counts
    candidates (known or not) identified as a wrong device.
    """
    known_total = sum(1 for c in candidates if c.device in database)
    points: list[IdentificationPoint] = []
    prepared: list[tuple[WindowCandidate, MacAddress | None, float]] = []
    for candidate in candidates:
        best_device: MacAddress | None = None
        best_sim = float("-inf")
        for device, sim in candidate.similarities.items():
            if sim > best_sim:
                best_device, best_sim = device, sim
        prepared.append((candidate, best_device, best_sim))

    for threshold in config.thresholds:
        correct = 0
        wrong = 0
        for candidate, best_device, best_sim in prepared:
            if best_device is None or best_sim < threshold:
                continue  # rejected: no identification claimed
            if best_device == candidate.device:
                correct += 1
            else:
                wrong += 1
        if not candidates:
            continue
        points.append(
            IdentificationPoint(
                threshold=threshold,
                identification_ratio=correct / known_total if known_total else 0.0,
                fpr=wrong / len(candidates),
            )
        )
    return IdentificationOutcome(
        curve=IdentificationCurve(points=points),
        known_candidates=known_total,
        total_candidates=len(candidates),
    )
