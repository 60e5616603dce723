"""End-to-end evaluation harness.

``evaluate_trace`` runs the paper's full protocol on one trace for one
(or all) network parameters: split into training/validation, learn the
reference database, window the validation part, match candidates and
score both tests.  The benchmark suite calls this once per
table/figure cell.

The whole protocol rides the columnar backbone (DESIGN.md §6): the
trace is interned into a :class:`~repro.traces.table.FrameTable` once,
the train/validation split and every detection window are
``np.searchsorted`` views of it, signature construction scatters
vectorized observation batches with ``np.bincount``, and all window
candidates are matched against the packed reference matrices in a
single :func:`~repro.core.matcher.batch_match_signatures` call (see
DESIGN.md "Batch matrix layout").  Every parameter has a columnar
extractor; there is no per-frame path to fall back to.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.database import ReferenceDatabase
from repro.core.detection import (
    DetectionConfig,
    IdentificationOutcome,
    SimilarityOutcome,
    evaluate_identification,
    evaluate_similarity,
    extract_window_candidates,
)
from repro.core.parameters import ALL_PARAMETERS, NetworkParameter
from repro.core.signature import SignatureBuilder
from repro.traces.trace import Trace


@dataclass
class EvaluationResult:
    """Everything the paper reports for one (trace, parameter) pair."""

    trace_name: str
    parameter: NetworkParameter
    reference_devices: int
    similarity: SimilarityOutcome
    identification: IdentificationOutcome

    @property
    def auc(self) -> float:
        """Similarity-test AUC (Table II cell)."""
        return self.similarity.auc

    def identification_at(self, fpr_budget: float) -> float:
        """Identification ratio at an FPR budget (Table III cell)."""
        return self.identification.ratio_at_fpr(fpr_budget)


def evaluate_trace(
    trace: Trace,
    parameter: NetworkParameter,
    training_s: float,
    config: DetectionConfig | None = None,
) -> EvaluationResult:
    """Run the full evaluation protocol for one network parameter."""
    cfg = config if config is not None else DetectionConfig()
    builder = SignatureBuilder(
        parameter, min_observations=cfg.min_observations
    )
    trace.table()  # intern once; the split below shares column views
    split = trace.split(training_s)
    database = ReferenceDatabase.from_training_table(
        builder, split.training.table()
    )
    candidates = extract_window_candidates(
        split.validation, builder, database, cfg
    )
    return EvaluationResult(
        trace_name=trace.name,
        parameter=parameter,
        reference_devices=len(database),
        similarity=evaluate_similarity(candidates, database, cfg),
        identification=evaluate_identification(candidates, database, cfg),
    )


def evaluate_all_parameters(
    trace: Trace,
    training_s: float,
    config: DetectionConfig | None = None,
) -> dict[str, EvaluationResult]:
    """Table II/III row: every parameter evaluated on one trace."""
    return {
        parameter.name: evaluate_trace(trace, parameter, training_s, config)
        for parameter in ALL_PARAMETERS
    }
