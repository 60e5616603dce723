"""Rogue-AP detection (Section VII-B2).

A client stores the published signature of the legitimate AP (learnt
during a safe period) and routinely fingerprints the AP it is
associated with.  Per the paper, frames the AP merely *forwards* on
behalf of other devices are excluded — they would pollute the AP's
signature with other devices' applicative behaviour — so the
fingerprint rests on the AP's own frames: beacons, probe responses and
other management traffic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dot11.mac import MacAddress
from repro.core.database import ReferenceDatabase
from repro.core.matcher import batch_match_signatures
from repro.core.parameters import InterArrivalTime, NetworkParameter
from repro.core.signature import Signature, SignatureBuilder
from repro.traces.filters import data_frames_only
from repro.traces.table import FROM_DS, FrameTable


def ap_own_rows(table: FrameTable, ap: MacAddress) -> np.ndarray:
    """Row mask of the AP's non-forwarded frames: traffic it originates.

    Data frames with from-DS set are forwarded payloads and are
    dropped, exactly as Section VII-B2 prescribes.  The batch detector
    and the live guard both select with this mask.
    """
    code = table.sender_code(ap)
    if code < 0:
        return np.zeros(len(table), dtype=bool)
    forwarded = data_frames_only(table) & ((table.flags & FROM_DS) != 0)
    return (table.sender_idx == code) & ~forwarded


@dataclass(frozen=True, slots=True)
class RogueApVerdict:
    """Result of one AP check."""

    ap: MacAddress
    similarity: float
    is_rogue: bool
    observations: int


class RogueApDetector:
    """Verifies an AP's identity against its published signature."""

    def __init__(
        self,
        parameter: NetworkParameter | None = None,
        accept_threshold: float = 0.6,
        min_observations: int = 50,
    ) -> None:
        if not 0.0 <= accept_threshold <= 1.0:
            raise ValueError(f"threshold out of range: {accept_threshold}")
        self.parameter = parameter if parameter is not None else InterArrivalTime()
        self.accept_threshold = accept_threshold
        self.builder = SignatureBuilder(
            self.parameter, min_observations=min_observations
        )
        #: The published AP signature as a one-entry database.
        self._reference: ReferenceDatabase | None = None

    def learn(self, table: FrameTable, ap: MacAddress) -> bool:
        """Record the legitimate AP's signature from a safe capture."""
        signature, _ = self._own_signature(table, ap)
        if signature is None:
            return False
        self.use_reference(signature, ap)
        return True

    def use_reference(self, signature: Signature, ap: MacAddress) -> None:
        """Adopt an already-learnt AP signature as the published one.

        This is how a loaded reference database plugs in: clients fetch
        the AP's signature from a store
        (:func:`repro.persistence.load_database` + ``database.get(ap)``)
        instead of re-learning it from a safe capture.
        """
        self._reference = ReferenceDatabase()
        self._reference.add(ap, signature)

    def check(self, table: FrameTable, claimed_ap: MacAddress) -> RogueApVerdict:
        """Fingerprint the currently visible AP traffic.

        The combined similarity follows Algorithm 1 with the stored
        reference as the single database entry.
        """
        signature, observations = self._own_signature(table, claimed_ap)
        return self.check_signature(signature, claimed_ap, observations=observations)

    def _own_signature(
        self, table: FrameTable, ap: MacAddress
    ) -> tuple[Signature | None, int]:
        """The signature of the AP's own frames, and how many there are."""
        own = table.select(ap_own_rows(table, ap))
        return self.builder.build_table(own).get(ap), len(own)

    def check_signature(
        self,
        signature: Signature | None,
        claimed_ap: MacAddress,
        observations: int = 0,
    ) -> RogueApVerdict:
        """Verdict from an already-built (possibly absent) AP signature.

        ``observations`` is only reported when the signature itself is
        missing (too little own traffic — treated as rogue, since a
        silent "AP" answering clients is itself anomalous).  This is
        also the streaming rogue-AP guard's per-window entry point.
        """
        if self._reference is None:
            raise RuntimeError("RogueApDetector.check called before learn()")
        if signature is None:
            return RogueApVerdict(
                ap=claimed_ap, similarity=0.0, is_rogue=True, observations=observations
            )
        combined = float(batch_match_signatures([signature], self._reference)[0, 0])
        return RogueApVerdict(
            ap=claimed_ap,
            similarity=combined,
            is_rogue=combined < self.accept_threshold,
            observations=signature.total_observations,
        )
