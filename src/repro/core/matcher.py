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

The pack stores each ``R̂_f`` column-major, so ``R̂_fᵀ``, the product's
right-hand operand, is C-contiguous and BLAS reads it as stored; the
values, and on the shapes live matching runs the products' bits, are
those of a row-major ``R̂_f``.

``Ĉ_f`` holds all M candidates, with a zero row where a candidate lacks
``f``: a :class:`~repro.core.signature.SignatureBlock` (a closed
streaming window) divides these padded blocks out of its counts, and a
sequence of signatures is stacked into them.  A zero row scores 0.0
against every reference, so it adds exactly +0.0, and each product is
weighted in place.  The first weighted product becomes the result and
the others are added into it: every term is non-negative, so that is
the sum started from a zero matrix, bit for bit, without allocating or
adding the zeros.

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

from typing import Collection, Mapping, Sequence

import numpy as np

from repro.core.database import PackedDatabase, ReferenceDatabase
from repro.core.signature import Signature, SignatureBlock
from repro.core.similarity import (
    SimilarityMeasure,
    cosine_similarity,
    normalize_rows,
    unit_cosine_product,
)
from repro.dot11.mac import MacAddress


def batch_match_signatures(
    candidates: Sequence[Signature] | Mapping[MacAddress, Signature],
    database: ReferenceDatabase,
    measure: SimilarityMeasure = cosine_similarity,
) -> np.ndarray:
    """Algorithm 1 for many candidates at once.

    ``candidates`` is a sequence of signatures or a device → signature
    mapping, in its order.  Returns the ``(len(candidates),
    len(database))`` similarity matrix; column ``j`` is
    ``database.devices[j]``.  For the cosine measure this is one
    matrix–matrix product per frame type over the candidates' padded
    ``(M, bins)`` rows (a :class:`~repro.core.signature.SignatureBlock`
    hands over its own), accumulated in sorted frame-type order so the
    float sum does not depend on database construction order; other
    measures score each candidate against the packed frequency
    matrices.  A candidate histogram whose width differs from the
    database's for its frame type raises ``ValueError``.
    """
    packed = database.packed()
    if packed is None:
        return np.zeros((len(candidates), 0), dtype=np.float64)
    shape = (len(candidates), len(packed.devices))
    signatures = candidates.values() if isinstance(candidates, Mapping) else candidates
    if measure is not cosine_similarity:
        totals = np.zeros(shape, dtype=np.float64)
        for row, candidate in enumerate(signatures):
            for ftype_key, histogram in candidate.histograms.items():
                references = packed.frequencies.get(ftype_key)
                if references is None:
                    continue
                width, held = histogram.shape[-1], references.shape[-1]
                if width != held:
                    raise _width_error(ftype_key, width, held)
                totals[row] += packed.weights[ftype_key] * measure(
                    histogram, references
                )
        return totals
    if isinstance(candidates, SignatureBlock):
        histograms = candidates.histograms
    else:
        histograms = _stack(signatures, packed)
    totals = None
    for ftype_key in sorted(packed.normalized):
        rows = histograms.get(ftype_key)
        if rows is None:
            continue
        references = packed.normalized[ftype_key]
        if rows.shape[-1] != references.shape[-1]:
            raise _width_error(ftype_key, rows.shape[-1], references.shape[-1])
        # A zero row (a candidate lacking the type) scores 0.0 against
        # every reference and adds exactly +0.0, so padding leaves the
        # other rows' sums as they were.
        scores = unit_cosine_product(normalize_rows(rows), references)
        scores *= packed.weights[ftype_key]
        if totals is None:
            # Scores and weights are non-negative, so the first block
            # is exactly what it would add to a zero matrix.
            totals = scores
        else:
            totals += scores
    return np.zeros(shape, dtype=np.float64) if totals is None else totals


def _width_error(ftype_key: str, width: int, held: int) -> ValueError:
    return ValueError(
        f"frame type {ftype_key!r}: candidate histogram has {width} bins, "
        f"the reference database holds {held}"
    )


def _stack(
    candidates: Collection[Signature], packed: PackedDatabase
) -> dict[str, np.ndarray]:
    """Each packed frame type's ``(M, bins)`` candidate histogram rows,
    a zero row where a candidate lacks the type (the
    :attr:`SignatureBlock.histograms` layout)."""
    widths = {key: matrix.shape[-1] for key, matrix in packed.normalized.items()}
    stacked: dict[str, np.ndarray] = {}
    for row, candidate in enumerate(candidates):
        for ftype_key, histogram in candidate.histograms.items():
            held = widths.get(ftype_key)
            if held is None:
                continue
            if histogram.shape[-1] != held:
                raise _width_error(ftype_key, histogram.shape[-1], held)
            rows = stacked.get(ftype_key)
            if rows is None:
                rows = stacked[ftype_key] = np.zeros((len(candidates), held))
            rows[row] = histogram
    return stacked
