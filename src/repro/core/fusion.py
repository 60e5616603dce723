"""Multi-parameter fusion — the paper's stated future work.

Section VIII: "future work should also investigate whether the
fingerprinting method can be improved by combining several network
parameters."  :class:`FusionMatcher` does exactly that: it maintains
one signature per parameter per device and combines per-parameter
Algorithm 1 scores with configurable fusion weights.  The extension
benchmark compares fused fingerprints against the best single
parameter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dot11.mac import MacAddress
from repro.core.database import ReferenceDatabase
from repro.core.matcher import match_signature
from repro.core.parameters import NetworkParameter
from repro.core.signature import Signature, SignatureBuilder
from repro.core.similarity import SimilarityMeasure, cosine_similarity
from repro.traces.table import FrameTable


@dataclass
class FusedSignature:
    """One device's signatures across several parameters."""

    per_parameter: dict[str, Signature] = field(default_factory=dict)

    @property
    def parameter_names(self) -> set[str]:
        """Parameters this fused signature covers."""
        return set(self.per_parameter)


class FusionMatcher:
    """Learn and match multi-parameter fingerprints.

    ``weights`` assigns each parameter's contribution to the combined
    score; they are normalised internally, so any positive scale works.
    """

    def __init__(
        self,
        parameters: list[NetworkParameter],
        weights: dict[str, float] | None = None,
        min_observations: int = 50,
        measure: SimilarityMeasure = cosine_similarity,
    ) -> None:
        if not parameters:
            raise ValueError("fusion needs at least one parameter")
        self.parameters = parameters
        raw = weights if weights is not None else {p.name: 1.0 for p in parameters}
        missing = {p.name for p in parameters} - set(raw)
        if missing:
            raise ValueError(f"missing fusion weights for: {sorted(missing)}")
        total = sum(raw[p.name] for p in parameters)
        if total <= 0:
            raise ValueError("fusion weights must sum to a positive value")
        self.weights = {p.name: raw[p.name] / total for p in parameters}
        self.builders = {
            p.name: SignatureBuilder(p, min_observations=min_observations)
            for p in parameters
        }
        self.measure = measure
        self._databases: dict[str, ReferenceDatabase] = {}

    def learn(self, table: FrameTable) -> None:
        """Learning phase over all parameters, from a training table."""
        self._databases = {
            name: ReferenceDatabase.from_training_table(builder, table)
            for name, builder in self.builders.items()
        }

    @property
    def devices(self) -> set[MacAddress]:
        """Devices known to at least one per-parameter database."""
        known: set[MacAddress] = set()
        for database in self._databases.values():
            known.update(database.devices)
        return known

    def extract(self, table: FrameTable) -> dict[MacAddress, FusedSignature]:
        """Candidate fused signatures from a detection window's table."""
        fused: dict[MacAddress, FusedSignature] = {}
        for name, builder in self.builders.items():
            for device, signature in builder.build_table(table).items():
                fused.setdefault(device, FusedSignature()).per_parameter[name] = signature
        return fused

    def match(self, candidate: FusedSignature) -> dict[MacAddress, float]:
        """Combined similarity vector across all parameters."""
        if not self._databases:
            raise RuntimeError("FusionMatcher.match called before learn()")
        combined: dict[MacAddress, float] = {
            device: 0.0 for device in self.devices
        }
        for name, signature in candidate.per_parameter.items():
            database = self._databases.get(name)
            if database is None:
                continue
            scores = match_signature(signature, database, self.measure)
            weight = self.weights[name]
            for device, score in scores.items():
                combined[device] = combined.get(device, 0.0) + weight * score
        return combined

    def identify(self, candidate: FusedSignature) -> tuple[MacAddress | None, float]:
        """Argmax identification over the combined scores."""
        scores = self.match(candidate)
        winner: MacAddress | None = None
        best = float("-inf")
        for device, score in scores.items():
            if score > best:
                winner, best = device, score
        if winner is None:
            return None, 0.0
        return winner, best
