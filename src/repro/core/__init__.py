"""The paper's contribution: passive fingerprinting from global
network parameters.

Pipeline: captured frames → per-frame parameter extraction
(:mod:`repro.core.parameters`) → per-device, per-frame-type percentage
histograms (:mod:`repro.core.histogram`) → weighted signatures
(:mod:`repro.core.signature`, Definition 1) → cosine matching
(:mod:`repro.core.similarity`, :mod:`repro.core.matcher`, Algorithm 1)
→ similarity/identification tests with TPR/FPR/AUC metrics
(:mod:`repro.core.detection`, :mod:`repro.core.metrics`) → full
evaluation harness (:mod:`repro.core.pipeline`).
"""

from repro.core.database import MergeReport, PackedDatabase, ReferenceDatabase
from repro.core.detection import (
    DetectionConfig,
    IdentificationOutcome,
    SimilarityOutcome,
    evaluate_identification,
    evaluate_similarity,
    extract_window_candidates,
)
from repro.core.fusion import FusionMatcher
from repro.core.histogram import BinSpec, CategoricalBins, Histogram, UniformBins
from repro.core.joint import JointBins, JointParameter
from repro.core.matcher import batch_match_signatures
from repro.core.metrics import CurvePoint, SimilarityCurve, area_under_curve
from repro.core.parameters import (
    ALL_PARAMETERS,
    FrameSize,
    InterArrivalTime,
    MediumAccessTime,
    NetworkParameter,
    TransmissionRate,
    TransmissionTime,
    parameter_by_name,
)
from repro.core.pipeline import EvaluationResult, evaluate_trace
from repro.core.signature import Signature, SignatureBuilder
from repro.core.similarity import (
    bhattacharyya_similarity,
    chi_square_similarity,
    cosine_distance,
    cosine_similarity,
    intersection_similarity,
    jensen_shannon_similarity,
    normalize_rows,
    similarity_measure_by_name,
    unit_cosine_product,
)

__all__ = [
    "ALL_PARAMETERS",
    "BinSpec",
    "CategoricalBins",
    "CurvePoint",
    "DetectionConfig",
    "EvaluationResult",
    "FrameSize",
    "FusionMatcher",
    "Histogram",
    "IdentificationOutcome",
    "InterArrivalTime",
    "JointBins",
    "JointParameter",
    "MediumAccessTime",
    "MergeReport",
    "NetworkParameter",
    "PackedDatabase",
    "ReferenceDatabase",
    "Signature",
    "SignatureBuilder",
    "SimilarityCurve",
    "SimilarityOutcome",
    "TransmissionRate",
    "TransmissionTime",
    "UniformBins",
    "area_under_curve",
    "batch_match_signatures",
    "bhattacharyya_similarity",
    "chi_square_similarity",
    "cosine_distance",
    "cosine_similarity",
    "evaluate_identification",
    "evaluate_similarity",
    "evaluate_trace",
    "extract_window_candidates",
    "intersection_similarity",
    "jensen_shannon_similarity",
    "normalize_rows",
    "parameter_by_name",
    "similarity_measure_by_name",
    "unit_cosine_product",
]
