"""Scalar reference implementations: the test oracles of the batch path.

The runtime has one implementation of each batch stage of the paper's
method: columnar extraction (``observe_table``), binning
(``BinSpec.index_many``), signature assembly from binned observation
codes (``SignatureBuilder.build_binned`` and its read-out
``SignatureBlock``) and Algorithm 1 on the packed reference
matrices (``batch_match_signatures``).  The original per-frame,
per-value and per-pair code lives here, so the equivalence suites and
the perf benchmarks compare the runtime against an independent
implementation:

* :func:`observations` — the per-frame extractors of the five
  parameters (Section III) and of the joint pairs, and
  :func:`timeline_interarrivals`, the Section VI measurement;
* :func:`bin_index` — the scalar binning rule of each bin spec;
* :func:`build` — signature assembly from those observations through
  per-(device, frame type) histogram buckets, with its own Definition 1
  read-out, and :func:`from_training` on top of it;
* :func:`window_candidates` — detection windows cut from the frame
  list and assembled with :func:`build`, then matched like
  ``extract_window_candidates``;
* :func:`similarity_test` and :func:`identification_test` — Section
  IV-B's two tests as loops over thresholds, candidates and each
  candidate's per-reference similarity dict (:func:`similarities`; the
  runtime counts on the stacked score matrix, ``evaluate_similarity``
  and ``evaluate_identification``);
* :func:`scalar_match` — the per-pair Algorithm 1 loop, with the 1-D
  forms of the non-cosine measures (:data:`SCALAR_MEASURES`), and
  :func:`first_maximum`, the identification rule as a loop over a
  per-reference dict (the runtime reads each score row's ``argmax``);
* :func:`pack` — the from-scratch rebuild of a database's packed view;
* :data:`FRAME_RULES` and :func:`ap_own_frames` — the Section VI frame
  conditions and the Section VII-B2 own-frame rule as per-frame
  predicates over the decoded MAC header (the runtime reads row masks
  off a table's columns, ``repro.traces.filters`` and
  ``repro.applications.rogue_ap.ap_own_rows``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from repro.core import similarity
from repro.core.database import PackedDatabase, ReferenceDatabase
from repro.core.detection import (
    DetectionConfig,
    IdentificationOutcome,
    SimilarityOutcome,
    WindowCandidate,
)
from repro.core.histogram import BinSpec, CategoricalBins, Histogram, UniformBins
from repro.core.joint import JointBins, JointParameter
from repro.core.matcher import batch_match_signatures
from repro.core.metrics import (
    CurvePoint,
    IdentificationCurve,
    IdentificationPoint,
    SimilarityCurve,
)
from repro.core.parameters import NetworkParameter
from repro.core.signature import Signature, SignatureBuilder
from repro.core.similarity import _EPS, _validate, SimilarityMeasure, normalize_rows
from repro.dot11.capture import CapturedFrame
from repro.dot11.frames import FrameType
from repro.dot11.mac import MacAddress
from repro.dot11.phy import paper_transmission_time_us
from repro.traces.trace import Trace


# -- extraction ------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class Observation:
    """One attributed measurement."""

    sender: MacAddress
    ftype_key: str
    value: float


def _rate(frames: Iterable[CapturedFrame]) -> Iterator[Observation]:
    for captured in frames:
        sender = captured.sender
        if sender is None:
            continue
        yield Observation(sender, captured.ftype_key, captured.rate_mbps)


def _size(frames: Iterable[CapturedFrame]) -> Iterator[Observation]:
    for captured in frames:
        sender = captured.sender
        if sender is None:
            continue
        yield Observation(sender, captured.ftype_key, float(captured.size))


def _txtime(frames: Iterable[CapturedFrame]) -> Iterator[Observation]:
    for captured in frames:
        sender = captured.sender
        if sender is None:
            continue
        value = paper_transmission_time_us(captured.size, captured.rate_mbps)
        yield Observation(sender, captured.ftype_key, value)


def _interarrival(frames: Iterable[CapturedFrame]) -> Iterator[Observation]:
    previous_t: float | None = None
    for captured in frames:
        t_i = captured.timestamp_us
        if previous_t is not None and captured.sender is not None:
            yield Observation(captured.sender, captured.ftype_key, t_i - previous_t)
        previous_t = t_i


def _access(frames: Iterable[CapturedFrame]) -> Iterator[Observation]:
    previous_t: float | None = None
    for captured in frames:
        t_i = captured.timestamp_us
        if previous_t is not None and captured.sender is not None:
            tt_i = paper_transmission_time_us(captured.size, captured.rate_mbps)
            yield Observation(
                captured.sender, captured.ftype_key, (t_i - tt_i) - previous_t
            )
        previous_t = t_i


def timeline_interarrivals(
    frames: Iterable[CapturedFrame],
    sender: MacAddress,
    keep: Callable[[CapturedFrame], bool] = lambda captured: True,
) -> list[float]:
    """``t_i − t_{i−1}`` on the full channel timeline for the sender's
    frames that ``keep`` accepts (the previous frame may be anyone's)."""
    values = []
    previous_t: float | None = None
    for captured in frames:
        t_i = captured.timestamp_us
        if previous_t is not None and captured.sender == sender and keep(captured):
            values.append(t_i - previous_t)
        previous_t = t_i
    return values


_EXTRACTORS: dict[str, Callable[[Iterable[CapturedFrame]], Iterator[Observation]]] = {
    "rate": _rate,
    "size": _size,
    "txtime": _txtime,
    "interarrival": _interarrival,
    "access": _access,
}

#: Per-frame value functions of the joint pairs.  ``previous_t`` is the
#: end-of-reception of the previous frame on the channel (None for the
#: first frame).
_VALUE_FUNCTIONS: dict[str, Callable[[CapturedFrame, float | None], float | None]] = {
    "rate": lambda c, prev: c.rate_mbps,
    "size": lambda c, prev: float(c.size),
    "txtime": lambda c, prev: paper_transmission_time_us(c.size, c.rate_mbps),
    "interarrival": lambda c, prev: None if prev is None else c.timestamp_us - prev,
    "access": lambda c, prev: (
        None
        if prev is None
        else (c.timestamp_us - paper_transmission_time_us(c.size, c.rate_mbps)) - prev
    ),
}


def _joint(
    parameter: JointParameter, frames: Iterable[CapturedFrame]
) -> Iterator[Observation]:
    """Each attributable frame's pair, binned per component and valued
    by the flattened joint bin; a pair with a discarded side is dropped."""
    x_name, y_name = (component.name for component in parameter.components)
    fx = _VALUE_FUNCTIONS[x_name]
    fy = _VALUE_FUNCTIONS[y_name]
    bins = parameter.default_bins()
    previous_t: float | None = None
    for captured in frames:
        if captured.sender is not None:
            x_value = fx(captured, previous_t)
            y_value = fy(captured, previous_t)
            if x_value is not None and y_value is not None:
                ix = bin_index(bins.x_bins, x_value)
                iy = bin_index(bins.y_bins, y_value)
                if ix is not None and iy is not None:
                    yield Observation(
                        captured.sender,
                        captured.ftype_key,
                        float(ix * bins.y_bins.bin_count + iy),
                    )
        previous_t = captured.timestamp_us


def observations(
    parameter: NetworkParameter, frames: Iterable[CapturedFrame]
) -> Iterator[Observation]:
    """The parameter's attributed observations, one frame at a time."""
    if isinstance(parameter, JointParameter):
        return _joint(parameter, frames)
    return _EXTRACTORS[parameter.name](frames)


# -- binning ---------------------------------------------------------------
def bin_index(spec: BinSpec, value: float) -> int | None:
    """The bin of one value (``None`` = discarded), one rule per spec.

    Uniform bins clip (or drop) values outside ``[lo, hi)`` and floor
    the rest; ``int`` raises ``ValueError`` on NaN.  Categorical bins
    take the first declared category within the tolerance.  Joint bins
    read the value as an already flattened bin.
    """
    if isinstance(spec, UniformBins):
        if value < spec.lo:
            return None if spec.drop_outside else 0
        if value >= spec.hi:
            return None if spec.drop_outside else spec.bin_count - 1
        return int((value - spec.lo) / spec.width)
    if isinstance(spec, CategoricalBins):
        for position, category in enumerate(spec.categories):
            if abs(value - category) <= spec.tolerance:
                return position
        return None
    if isinstance(spec, JointBins):
        index = int(value)
        return index if 0 <= index < spec.bin_count else None
    raise TypeError(f"no scalar rule for {type(spec).__name__}")


# -- signature assembly ----------------------------------------------------
def build(
    builder: SignatureBuilder, frames: list[CapturedFrame]
) -> dict[MacAddress, Signature]:
    """``builder.build_table`` over the frames' table, through
    per-(device, frame type) buckets."""
    buckets: dict[MacAddress, dict[str, list[float]]] = {}
    for observation in observations(builder.parameter, frames):
        per_type = buckets.setdefault(observation.sender, {})
        per_type.setdefault(observation.ftype_key, []).append(observation.value)

    accumulators: dict[MacAddress, dict[str, Histogram]] = {}
    for sender, values_by_type in buckets.items():
        per_type = accumulators.setdefault(sender, {})
        for ftype_key, values in values_by_type.items():
            histogram = Histogram(builder.bins)
            histogram.add_array(np.asarray(values, dtype=np.float64))
            per_type[ftype_key] = histogram

    signatures: dict[MacAddress, Signature] = {}
    for sender, per_type in accumulators.items():
        total = sum(h.total for h in per_type.values())
        if total < builder.min_observations:
            continue
        histograms: dict[str, np.ndarray] = {}
        weights: dict[str, float] = {}
        counts: dict[str, int] = {}
        for ftype_key, histogram in per_type.items():
            if histogram.total == 0:
                continue
            histograms[ftype_key] = histogram.frequencies()
            weights[ftype_key] = histogram.total / total
            counts[ftype_key] = histogram.total
        if histograms:
            signatures[sender] = Signature(
                histograms=histograms,
                weights=weights,
                observation_counts=counts,
            )
    return signatures


def from_training(
    builder: SignatureBuilder, frames: list[CapturedFrame]
) -> ReferenceDatabase:
    """``ReferenceDatabase.from_training_table`` with :func:`build`."""
    database = ReferenceDatabase()
    for sender, signature in build(builder, frames).items():
        database.add(sender, signature)
    return database


def window_candidates(
    validation: Trace,
    builder: SignatureBuilder,
    database: ReferenceDatabase,
    config: DetectionConfig,
) -> list[WindowCandidate]:
    """``extract_window_candidates`` with each window's frames run
    through :func:`build`."""
    candidates = []
    for window_index, window in enumerate(validation.windows(config.window_s)):
        signatures = build(builder, window.frames)
        candidates.extend(
            WindowCandidate(device, window_index, signatures) for device in signatures
        )
    scores = batch_match_signatures(
        [candidate.signature for candidate in candidates], database, config.measure
    )
    references = tuple(database.devices)
    for candidate, row in zip(candidates, scores):
        candidate.scores = row
        candidate.references = references
    return candidates


# -- detection tests -------------------------------------------------------
def similarities(candidate: WindowCandidate) -> dict[MacAddress, float]:
    """A matched candidate's score row as reference device → similarity."""
    return dict(zip(candidate.references, candidate.scores.tolist()))


def first_maximum(
    scores: dict[MacAddress, float],
) -> tuple[MacAddress | None, float]:
    """The first reference with the largest score, and that score
    (``(None, 0.0)`` for no references)."""
    best_device: MacAddress | None = None
    best_score = 0.0
    for device, score in scores.items():
        if best_device is None or score > best_score:
            best_device, best_score = device, score
    return best_device, best_score


def similarity_test(
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
                for device, sim in similarities(candidate).items()
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


def identification_test(
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
    prepared = [
        (candidate, *first_maximum(similarities(candidate))) for candidate in candidates
    ]

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


# -- matching --------------------------------------------------------------
def scalar_match(
    candidate: Signature,
    database: ReferenceDatabase,
    measure: SimilarityMeasure = similarity.cosine_similarity,
) -> dict[MacAddress, float]:
    """Algorithm 1 as the per-pair loop over (frame type, reference)."""
    combined: dict[MacAddress, float] = {device: 0.0 for device in database}
    for ftype_key, candidate_hist in candidate.histograms.items():
        for device, reference in database.items():
            reference_hist = reference.histogram(ftype_key)
            if reference_hist is None:
                continue
            score = measure(candidate_hist, reference_hist)
            combined[device] += reference.weight(ftype_key) * score
    return combined


def intersection_similarity(candidate: np.ndarray, reference: np.ndarray) -> float:
    """Histogram intersection: Σ min(c_j, r_j)."""
    _validate(candidate, reference)
    if candidate.sum() < _EPS or reference.sum() < _EPS:
        return 0.0
    return float(np.minimum(candidate, reference).sum())


def chi_square_similarity(candidate: np.ndarray, reference: np.ndarray) -> float:
    """1 − χ²/2 with the symmetric chi-square statistic."""
    _validate(candidate, reference)
    total_c = candidate.sum()
    total_r = reference.sum()
    if total_c < _EPS or total_r < _EPS:
        return 0.0
    p = candidate / total_c
    q = reference / total_r
    denominator = p + q
    mask = denominator > _EPS
    chi2 = float(np.sum((p[mask] - q[mask]) ** 2 / denominator[mask]))
    return max(0.0, 1.0 - chi2 / 2.0)


def bhattacharyya_similarity(candidate: np.ndarray, reference: np.ndarray) -> float:
    """Bhattacharyya coefficient Σ √(c_j·r_j)."""
    _validate(candidate, reference)
    if candidate.sum() < _EPS or reference.sum() < _EPS:
        return 0.0
    return float(np.sqrt(candidate * reference).sum())


def jensen_shannon_similarity(candidate: np.ndarray, reference: np.ndarray) -> float:
    """1 − JSD(c‖r) with the base-2 Jensen–Shannon divergence."""
    _validate(candidate, reference)
    total_c = candidate.sum()
    total_r = reference.sum()
    if total_c < _EPS or total_r < _EPS:
        return 0.0
    p = candidate / total_c
    q = reference / total_r
    mid = (p + q) / 2.0

    def _kl(a: np.ndarray, b: np.ndarray) -> float:
        mask = a > _EPS
        return float(np.sum(a[mask] * np.log2(a[mask] / b[mask])))

    divergence = (_kl(p, mid) + _kl(q, mid)) / 2.0
    return max(0.0, 1.0 - divergence)


#: Runtime measure → the 1-D form :func:`scalar_match` runs it as.
SCALAR_MEASURES: dict[SimilarityMeasure, SimilarityMeasure] = {
    similarity.cosine_similarity: similarity.cosine_similarity,
    similarity.intersection_similarity: intersection_similarity,
    similarity.chi_square_similarity: chi_square_similarity,
    similarity.bhattacharyya_similarity: bhattacharyya_similarity,
    similarity.jensen_shannon_similarity: jensen_shannon_similarity,
}


# -- packing ---------------------------------------------------------------
def pack(entries: list[tuple[MacAddress, Signature]]) -> PackedDatabase:
    """Pack signatures into matrices from scratch, row by row.

    Every frame type must have one bin count across the signatures, as
    :meth:`~repro.core.database.ReferenceDatabase.add` enforces.
    """
    devices = tuple(device for device, _ in entries)
    bin_counts: dict[str, int] = {}
    for _, signature in entries:
        for ftype_key, histogram in signature.histograms.items():
            bin_counts.setdefault(ftype_key, int(histogram.shape[-1]))
    frame_types = tuple(bin_counts)
    frequencies: dict[str, np.ndarray] = {}
    weights: dict[str, np.ndarray] = {}
    normalized: dict[str, np.ndarray] = {}
    for ftype_key in frame_types:
        matrix = np.zeros((len(entries), bin_counts[ftype_key]), dtype=np.float64)
        weight = np.zeros(len(entries), dtype=np.float64)
        for row, (_, signature) in enumerate(entries):
            histogram = signature.histogram(ftype_key)
            if histogram is not None:
                matrix[row] = histogram
                weight[row] = signature.weight(ftype_key)
        frequencies[ftype_key] = matrix
        weights[ftype_key] = weight
        normalized[ftype_key] = normalize_rows(matrix)
    return PackedDatabase(
        devices=devices,
        frame_types=frame_types,
        frequencies=frequencies,
        weights=weights,
        normalized=normalized,
    )


# -- frame rules -----------------------------------------------------------
#: The Section VI conditions, one predicate per ``repro.traces.filters``
#: function name (``sent_at_rate`` takes the rate as a second argument).
FRAME_RULES: dict[str, Callable[..., bool]] = {
    "data_frames_only": lambda c: c.frame.is_data,
    "first_transmissions_only": lambda c: not c.frame.retry,
    "broadcast_data_only": lambda c: c.frame.is_data and c.frame.is_multicast,
    "null_function_only": lambda c: c.frame.is_null_function,
    "sent_at_rate": lambda c, rate_mbps: abs(c.rate_mbps - rate_mbps) < 1e-9,
}


def ap_own_frames(
    frames: list[CapturedFrame], ap: MacAddress
) -> list[CapturedFrame]:
    """The AP's non-forwarded frames: data frames with ``from_ds`` set
    are forwarded payloads and are dropped (Section VII-B2)."""
    return [
        captured
        for captured in frames
        if captured.sender == ap
        and not (captured.frame.ftype is FrameType.DATA and captured.frame.from_ds)
    ]
