"""Histogram similarity measures.

The paper (Definition 2) uses the Cosine similarity: 1 for identical
distributions, 0 for disjoint support.  As printed, the definition
carries a ``1 −`` that contradicts the stated semantics and
Algorithm 1; we implement the stated semantics as
:func:`cosine_similarity` and expose the printed complement as
:func:`cosine_distance` (see DESIGN.md "Known erratum handled").

Because the paper cites Cha's histogram-distance taxonomy [8] and
leaves "the most adequate signal processing method" open, the module
also ships the classic alternatives used in the ablation benchmark:
intersection, chi-square, Bhattacharyya and Jensen–Shannon.  All are
*similarities* normalised to [0, 1] with 1 = identical.

The batch matching engine (see DESIGN.md "Batch matrix layout") scores
one candidate histogram against a whole packed reference matrix at
once.  Cosine runs as a matrix product: :func:`normalize_rows` and
:func:`unit_cosine_product` are its kernels, with the same zero-norm
semantics as :func:`cosine_similarity` (an all-zero histogram scores 0
against everything).  The four alternatives take an ``(N, bins)``
reference matrix directly and return the ``(N,)`` row scores: an
elementwise expression followed by one row reduction, which for
intersection and Bhattacharyya gives the per-pair values bit for bit.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

#: ``measure(candidate, reference)``: a ``(bins,)`` candidate histogram
#: against a ``(bins,)`` reference (→ float) or against every row of an
#: ``(N, bins)`` reference matrix (→ ``(N,)``).  The batch matcher hands
#: every measure except :func:`cosine_similarity` (matched by matrix
#: product) one frame type's packed reference matrix.
SimilarityMeasure = Callable[[np.ndarray, np.ndarray], "float | np.ndarray"]

_EPS = 1e-12


def _validate(candidate: np.ndarray, reference: np.ndarray) -> None:
    if candidate.shape != reference.shape:
        raise ValueError(
            f"histogram shapes differ: {candidate.shape} vs {reference.shape}"
        )


def cosine_similarity(candidate: np.ndarray, reference: np.ndarray) -> float:
    """Definition 2 with the stated semantics: dot / (‖c‖·‖r‖) ∈ [0, 1].

    Two all-zero histograms have no overlap information and score 0.
    """
    _validate(candidate, reference)
    norm_c = float(np.linalg.norm(candidate))
    norm_r = float(np.linalg.norm(reference))
    if norm_c < _EPS or norm_r < _EPS:
        return 0.0
    value = float(np.dot(candidate, reference)) / (norm_c * norm_r)
    return min(1.0, max(0.0, value))


def cosine_distance(candidate: np.ndarray, reference: np.ndarray) -> float:
    """The paper's printed formula: ``1 − cosine_similarity``."""
    return 1.0 - cosine_similarity(candidate, reference)


def normalize_rows(matrix: np.ndarray) -> np.ndarray:
    """Rows scaled to unit L2 norm; all-zero rows stay all-zero.

    A zero row then contributes 0 to any dot product, which is exactly
    the scalar :func:`cosine_similarity` zero-norm convention.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    norms = np.linalg.norm(matrix, axis=-1, keepdims=True)
    return matrix / np.where(norms < _EPS, 1.0, norms)


def unit_cosine_product(
    unit_candidates: np.ndarray, unit_references: np.ndarray
) -> np.ndarray:
    """Clipped cosine scores of already unit-normalised rows.

    ``(M, bins) × (N, bins) → (M, N)`` in one matrix–matrix product —
    the batch engine's hot path, which keeps reference rows
    pre-normalised (:class:`~repro.core.database.PackedDatabase`) so
    they are not renormalised on every call.  Rows must be unit-norm
    or all-zero (see :func:`normalize_rows`); results are clipped to
    [0, 1] like the scalar measure.
    """
    unit_candidates = np.atleast_2d(np.asarray(unit_candidates, dtype=np.float64))
    unit_references = np.atleast_2d(np.asarray(unit_references, dtype=np.float64))
    if unit_candidates.shape[-1] != unit_references.shape[-1]:
        raise ValueError(
            f"histogram shapes differ: {unit_candidates.shape} vs "
            f"{unit_references.shape}"
        )
    scores = unit_candidates @ unit_references.T
    np.clip(scores, 0.0, 1.0, out=scores)
    return scores


def _row_inputs(
    candidate: np.ndarray, reference: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The candidate and reference masses (``()`` or ``(N,)``), after
    checking that the reference rows have the candidate's shape."""
    if reference.shape[-1:] != candidate.shape:
        raise ValueError(
            f"histogram shapes differ: {candidate.shape} vs {reference.shape}"
        )
    return candidate.sum(), reference.sum(axis=-1)


def _scores(
    values: np.ndarray, total_c: float, total_r: np.ndarray
) -> float | np.ndarray:
    """Row scores with empty histograms scoring 0; a float for one row."""
    scores = np.where((total_c < _EPS) | (total_r < _EPS), 0.0, values)
    return float(scores) if scores.ndim == 0 else scores


def _distributions(
    candidate: np.ndarray,
    reference: np.ndarray,
    total_c: float,
    total_r: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Both sides scaled to unit mass; an empty side is left unscaled
    (:func:`_scores` zeroes its scores)."""
    p = candidate / (total_c if total_c >= _EPS else 1.0)
    q = reference / np.where(total_r < _EPS, 1.0, total_r)[..., None]
    return p, q


def intersection_similarity(
    candidate: np.ndarray, reference: np.ndarray
) -> float | np.ndarray:
    """Histogram intersection: Σ min(c_j, r_j) (1 for identical
    normalised histograms)."""
    total_c, total_r = _row_inputs(candidate, reference)
    return _scores(np.minimum(candidate, reference).sum(axis=-1), total_c, total_r)


def chi_square_similarity(
    candidate: np.ndarray, reference: np.ndarray
) -> float | np.ndarray:
    """1 − χ²/2 with the symmetric chi-square statistic.

    For normalised histograms the symmetric χ² statistic lies in
    [0, 2] (2 at disjoint support), so this maps exactly onto [0, 1]
    with 1 = identical and 0 = disjoint.
    """
    total_c, total_r = _row_inputs(candidate, reference)
    p, q = _distributions(candidate, reference, total_c, total_r)
    denominator = p + q
    terms = np.divide(
        (p - q) ** 2,
        denominator,
        out=np.zeros(denominator.shape),
        where=denominator > _EPS,
    )
    chi2 = terms.sum(axis=-1)
    return _scores(np.maximum(0.0, 1.0 - chi2 / 2.0), total_c, total_r)


def bhattacharyya_similarity(
    candidate: np.ndarray, reference: np.ndarray
) -> float | np.ndarray:
    """Bhattacharyya coefficient Σ √(c_j·r_j) ∈ [0, 1]."""
    total_c, total_r = _row_inputs(candidate, reference)
    return _scores(np.sqrt(candidate * reference).sum(axis=-1), total_c, total_r)


def jensen_shannon_similarity(
    candidate: np.ndarray, reference: np.ndarray
) -> float | np.ndarray:
    """1 − JSD(c‖r) with the base-2 Jensen–Shannon divergence."""
    total_c, total_r = _row_inputs(candidate, reference)
    p, q = _distributions(candidate, reference, total_c, total_r)
    mid = (p + q) / 2.0

    def _kl(a: np.ndarray) -> np.ndarray:
        a = np.broadcast_to(a, mid.shape)
        ratio = np.divide(a, mid, out=np.ones(mid.shape), where=a > _EPS)
        return (a * np.log2(ratio)).sum(axis=-1)

    divergence = (_kl(p) + _kl(q)) / 2.0
    return _scores(np.maximum(0.0, 1.0 - divergence), total_c, total_r)


_MEASURES: dict[str, SimilarityMeasure] = {
    "cosine": cosine_similarity,
    "intersection": intersection_similarity,
    "chi2": chi_square_similarity,
    "bhattacharyya": bhattacharyya_similarity,
    "jensen-shannon": jensen_shannon_similarity,
}


def similarity_measure_by_name(name: str) -> SimilarityMeasure:
    """Look up a similarity measure (``cosine`` is the paper's)."""
    try:
        return _MEASURES[name]
    except KeyError:
        raise KeyError(
            f"unknown similarity measure {name!r}; available: {sorted(_MEASURES)}"
        ) from None
