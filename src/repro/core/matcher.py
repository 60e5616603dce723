"""Algorithm 1: matching a candidate signature against the database.

For every frame type the candidate exhibits, the candidate histogram is
compared with each reference's histogram of the same frame type; the
per-type similarity is weighted by the **reference** signature's frame
type weight and accumulated:

``sim_i += weight^ftype(r_i) × simCos(hist^ftype(c), hist^ftype(r_i))``

A reference lacking a frame type the candidate shows contributes 0 for
that type (its weight for the type is 0), naturally penalising
behavioural mismatches.  The result is the similarity vector
``<sim_1, …, sim_N>`` over the reference devices.

Matrix formulation
------------------

Because cosine similarity is a normalised inner product, Algorithm 1
is a sum of matrix products.  Pack the database per frame type ``f``
into the unit-row matrix ``R̂_f`` (row ``i`` is
``hist^f(r_i)/‖hist^f(r_i)‖``, all-zero when device ``i`` lacks ``f``)
and the weight vector ``w_f`` (:class:`~repro.core.database.PackedDatabase`);
normalise the candidate histogram to ``ĉ_f``.  Then the whole
similarity vector is

``sim = Σ_f  w_f ⊙ clip(R̂_f ĉ_f, 0, 1)``

one matrix–vector product per frame type instead of N·|ftypes| scalar
cosine calls.  For M candidates at once, stack the ``ĉ_f`` rows into
``Ĉ_f`` and the ``(M, N)`` similarity matrix is
``Σ_f clip(Ĉ_f R̂_fᵀ, 0, 1) ⊙ w_f`` — a matrix–matrix product per
frame type (:func:`batch_match_signatures`).  Zero-norm rows stay
all-zero under :func:`~repro.core.similarity.normalize_rows`, which
reproduces the scalar zero-norm convention, and a candidate frame type
no reference exhibits contributes nothing, exactly as in the scalar
loop.

The other measures run on the same packed view: for each candidate,
``sim += w_f ⊙ measure(hist^f(c), R_f)`` over the candidate's frame
types in the candidate's own order, where ``R_f`` is the ``(N, bins)``
frequency matrix and the measure returns one score per row.  That is
the per-pair loop's arithmetic, reference by reference (the loop
itself is kept as a test oracle).

:func:`batch_match_signatures` is the one entry point.  Every consumer
reads rows of its matrix: the detection phase, the stream engine, the
Section VII applications and parameter fusion.  Each picks a row's
winner the same way, as its first maximum, so a tie goes to the
earliest-registered reference.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.database import ReferenceDatabase
from repro.core.signature import Signature
from repro.core.similarity import (
    SimilarityMeasure,
    cosine_similarity,
    normalize_rows,
    unit_cosine_product,
)


def batch_match_signatures(
    candidates: Sequence[Signature],
    database: ReferenceDatabase,
    measure: SimilarityMeasure = cosine_similarity,
) -> np.ndarray:
    """Algorithm 1 for many candidates at once.

    Returns the ``(len(candidates), len(database))`` similarity matrix;
    column ``j`` is ``database.devices[j]``.  For the cosine measure
    this is one matrix–matrix product per frame type (accumulated in
    sorted frame-type order, so the float sum does not depend on
    database construction order); other measures score each candidate
    against the packed frequency matrices.
    """
    packed = database.packed()
    if packed is None:
        return np.zeros((len(candidates), 0), dtype=np.float64)
    totals = np.zeros((len(candidates), len(packed.devices)), dtype=np.float64)
    if measure is not cosine_similarity:
        for row, candidate in enumerate(candidates):
            for ftype_key, histogram in candidate.histograms.items():
                references = packed.frequencies.get(ftype_key)
                if references is not None:
                    totals[row] += packed.weights[ftype_key] * measure(
                        histogram, references
                    )
        return totals
    for ftype_key in sorted(packed.normalized):
        references = packed.normalized[ftype_key]
        rows = [
            row
            for row, candidate in enumerate(candidates)
            if ftype_key in candidate.histograms
        ]
        if not rows:
            continue
        stacked = np.stack(
            [candidates[row].histograms[ftype_key] for row in rows]
        ).astype(np.float64, copy=False)
        scores = unit_cosine_product(normalize_rows(stacked), references)
        totals[rows] += scores * packed.weights[ftype_key]
    return totals
