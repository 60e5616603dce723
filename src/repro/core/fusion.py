"""Multi-parameter fusion — the paper's stated future work.

Section VIII: "future work should also investigate whether the
fingerprinting method can be improved by combining several network
parameters."  :class:`FusionMatcher` does exactly that: it keeps one
reference database per parameter, and a candidate is a ``dict`` of its
per-parameter signatures.  A window's candidates are scored with one
:func:`~repro.core.matcher.batch_match_signatures` call per parameter,
and each parameter's matrix, scaled by its fusion weight, is added into
one union device axis.  The extension benchmark compares fused
fingerprints against the best single parameter.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.dot11.mac import MacAddress
from repro.core.database import ReferenceDatabase
from repro.core.matcher import batch_match_signatures
from repro.core.parameters import NetworkParameter
from repro.core.signature import Signature, SignatureBuilder
from repro.core.similarity import SimilarityMeasure, cosine_similarity
from repro.traces.table import FrameTable


class FusionMatcher:
    """Learn and match multi-parameter fingerprints.

    ``weights`` assigns each parameter's contribution to the combined
    score; each must be a finite non-negative number, and they are
    normalised internally, so any positive scale works.
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
        for p in parameters:
            # A NaN weight would make every fused score NaN, and a
            # negative one push the fused similarity outside [0, 1].
            if not 0 <= raw[p.name] < math.inf:
                raise ValueError(
                    f"fusion weight for {p.name!r} must be a finite non-negative "
                    f"number: {raw[p.name]!r}"
                )
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
        #: Devices known to at least one parameter's database, in
        #: first-registration order (parameter order, then each
        #: database's insertion order): the columns of :meth:`match`.
        self.devices: tuple[MacAddress, ...] = ()
        #: Parameter name → the union column of each database device.
        self._columns: dict[str, list[int]] = {}

    def learn(self, table: FrameTable) -> None:
        """Learning phase over all parameters, from a training table."""
        self._databases = {
            name: ReferenceDatabase.from_training_table(builder, table)
            for name, builder in self.builders.items()
        }
        union: dict[MacAddress, int] = {}
        for database in self._databases.values():
            for device in database:
                union.setdefault(device, len(union))
        self.devices = tuple(union)
        self._columns = {
            name: [union[device] for device in database]
            for name, database in self._databases.items()
        }

    def extract(self, table: FrameTable) -> dict[MacAddress, dict[str, Signature]]:
        """Candidates from a detection window's table: device →
        parameter name → signature."""
        fused: dict[MacAddress, dict[str, Signature]] = {}
        for name, builder in self.builders.items():
            for device, signature in builder.build_table(table).items():
                fused.setdefault(device, {})[name] = signature
        return fused

    def match(self, candidates: Sequence[dict[str, Signature]]) -> np.ndarray:
        """The ``(len(candidates), len(devices))`` fused score matrix.

        The weighted sum, in parameter order, of one
        :func:`~repro.core.matcher.batch_match_signatures` matrix per
        parameter over the candidates that have its signature, each
        added into the :attr:`devices` columns of its database.
        """
        if not self._databases:
            raise RuntimeError("FusionMatcher.match called before learn()")
        fused = np.zeros((len(candidates), len(self.devices)), dtype=np.float64)
        for name, database in self._databases.items():
            rows = [
                row for row, candidate in enumerate(candidates) if name in candidate
            ]
            if not rows:
                continue
            scores = batch_match_signatures(
                [candidates[row][name] for row in rows], database, self.measure
            )
            fused[np.ix_(rows, self._columns[name])] += self.weights[name] * scores
        return fused

    def identify(
        self, candidates: Sequence[dict[str, Signature]]
    ) -> list[tuple[MacAddress | None, float]]:
        """Each candidate's first maximum over :attr:`devices`.

        A tie goes to the earliest-registered device; every candidate
        gets ``(None, 0.0)`` when there are no references.
        """
        scores = self.match(candidates)
        if not self.devices:
            return [(None, 0.0)] * len(candidates)
        columns = scores.argmax(axis=1).tolist()
        return [
            (self.devices[column], float(row[column]))
            for column, row in zip(columns, scores)
        ]
