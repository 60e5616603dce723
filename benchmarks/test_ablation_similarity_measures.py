"""Ablation: the similarity measure in Algorithm 1.

The paper chooses the Cosine similarity from Cha's histogram-distance
taxonomy [8].  This ablation swaps in intersection, chi-square,
Bhattacharyya and Jensen–Shannon and reports the impact — showing the
method is not an artefact of one distance choice.
"""

from __future__ import annotations

from repro.analysis.plots import render_table
from repro.core.database import ReferenceDatabase
from repro.core.detection import (
    DetectionConfig,
    evaluate_identification,
    evaluate_similarity,
    extract_window_candidates,
)
from repro.core.matcher import batch_match_signatures
from repro.core.parameters import InterArrivalTime
from repro.core.signature import SignatureBuilder
from repro.core.similarity import similarity_measure_by_name

MEASURES = ("cosine", "intersection", "chi2", "bhattacharyya", "jensen-shannon")


def test_ablation_similarity_measures(datasets, benchmark):
    trace, training_s = datasets["office2"]
    split = trace.split(training_s)
    builder = SignatureBuilder(InterArrivalTime(), min_observations=50)
    database = ReferenceDatabase.from_training_table(builder, split.training.table())
    rows = []
    aucs = {}
    for name in MEASURES:
        config = DetectionConfig(measure=similarity_measure_by_name(name))
        candidates = extract_window_candidates(
            split.validation, builder, database, config
        )
        similarity = evaluate_similarity(candidates, database, config)
        identification = evaluate_identification(candidates, database, config)
        aucs[name] = similarity.auc
        rows.append(
            (
                name,
                f"{similarity.auc:.3f}",
                f"{identification.ratio_at_fpr(0.1):.3f}",
            )
        )
    print()
    print(
        render_table(
            ["measure", "AUC", "ident@0.1"],
            rows,
            title="Ablation: similarity measure (inter-arrival, office 2)",
        )
    )

    # All sensible measures land in the same ballpark as cosine.
    for name in MEASURES:
        assert aucs[name] > aucs["cosine"] - 0.15

    measure = similarity_measure_by_name("cosine")
    config = DetectionConfig()
    candidate = extract_window_candidates(
        split.validation, builder, database, config
    )[0]

    def kernel():
        return batch_match_signatures([candidate.signature], database, measure)

    benchmark(kernel)
