"""Ablation (Section IV-A): histogram bin width.

The paper fixes a "simple signature calculation method" without tuning
the binning; this ablation quantifies how the inter-arrival bin width
moves accuracy (too coarse merges device quirks, too fine fragments
mass across bins and loses overlap).
"""

from __future__ import annotations

from repro.analysis.plots import render_table
from repro.core.detection import DetectionConfig
from repro.core.histogram import UniformBins
from repro.core.parameters import InterArrivalTime
from repro.core.database import ReferenceDatabase
from repro.core.detection import (
    evaluate_identification,
    evaluate_similarity,
    extract_window_candidates,
)
from repro.core.signature import SignatureBuilder

WIDTHS = (10.0, 25.0, 50.0, 100.0, 250.0, 500.0)


def test_ablation_interarrival_bin_width(datasets, benchmark):
    trace, training_s = datasets["office2"]
    config = DetectionConfig()
    split = trace.split(training_s)
    rows = []
    aucs = {}
    for width in WIDTHS:
        bins = UniformBins(lo=0.0, hi=2500.0, width=width)
        builder = SignatureBuilder(
            InterArrivalTime(), bins=bins, min_observations=50
        )
        database = ReferenceDatabase.from_training_table(
            builder, split.training.table()
        )
        candidates = extract_window_candidates(
            split.validation, builder, database, config
        )
        similarity = evaluate_similarity(candidates, database, config)
        identification = evaluate_identification(candidates, database, config)
        aucs[width] = similarity.auc
        rows.append(
            (
                f"{width:g} µs",
                bins.bin_count,
                f"{similarity.auc:.3f}",
                f"{identification.ratio_at_fpr(0.1):.3f}",
            )
        )
    print()
    print(
        render_table(
            ["bin width", "# bins", "AUC", "ident@0.1"],
            rows,
            title="Ablation: inter-arrival bin width (office 2)",
        )
    )

    # Extremely coarse bins lose discriminative power relative to the
    # default 50 µs.
    assert aucs[500.0] <= aucs[50.0] + 0.02

    def kernel():
        bins = UniformBins(lo=0.0, hi=2500.0, width=50.0)
        builder = SignatureBuilder(InterArrivalTime(), bins=bins, min_observations=50)
        return len(builder.build_table(split.training.table()))

    benchmark.pedantic(kernel, rounds=1, iterations=1)
