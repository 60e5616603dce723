"""MAC-spoof detection (Section VII-B1).

An AP (or monitoring appliance) learns the signatures of authorised
client stations during a user-initiated learning window, then
routinely fingerprints traffic claiming those MAC addresses.  A client
whose current-window signature no longer matches its own reference —
while matching is expected to clear an acceptance threshold — is
flagged: someone is using its address.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.dot11.mac import MacAddress
from repro.core.database import ReferenceDatabase
from repro.core.detection import WindowCandidate, matched_candidates, reference_axis
from repro.core.matcher import batch_match_signatures
from repro.core.parameters import InterArrivalTime, NetworkParameter
from repro.core.signature import SignatureBuilder
from repro.traces.table import FrameTable


class SpoofVerdict(enum.Enum):
    """Outcome of checking one claimed identity in one window."""

    #: Signature matches the claimed identity's reference.
    GENUINE = "genuine"
    #: Signature exists but does not match the claimed identity.
    SPOOFED = "spoofed"
    #: Too little traffic in the window to decide.
    INSUFFICIENT = "insufficient"
    #: The claimed address is not in the allow-list.
    UNKNOWN_DEVICE = "unknown"


@dataclass(frozen=True, slots=True)
class SpoofCheck:
    """One verdict with its evidence."""

    device: MacAddress
    verdict: SpoofVerdict
    self_similarity: float
    best_other_similarity: float


class SpoofDetector:
    """Guards an allow-list of client stations with fingerprints.

    ``accept_threshold`` is the minimum self-similarity a genuine
    device must show; ``margin`` additionally requires the claimed
    identity to beat every *other* reference by this much, catching
    attackers whose traffic resembles a different known device.  Both
    are similarities, so each must lie in [0, 1].
    """

    def __init__(
        self,
        parameter: NetworkParameter | None = None,
        accept_threshold: float = 0.55,
        margin: float = 0.0,
        min_observations: int = 50,
        database: ReferenceDatabase | None = None,
    ) -> None:
        """``database`` seeds the allow-list with an existing reference
        database, e.g. one loaded from disk
        (:func:`repro.persistence.load_database`); the default is a
        fresh empty database filled by :meth:`learn`."""
        if not 0.0 <= accept_threshold <= 1.0:
            raise ValueError(f"threshold out of range: {accept_threshold}")
        if not 0.0 <= margin <= 1.0:
            raise ValueError(f"margin out of range: {margin}")
        self.parameter = parameter if parameter is not None else InterArrivalTime()
        self.accept_threshold = accept_threshold
        self.margin = margin
        self.builder = SignatureBuilder(
            self.parameter, min_observations=min_observations
        )
        self.database = database if database is not None else ReferenceDatabase()

    def learn(self, table: FrameTable, allowed: set[MacAddress]) -> set[MacAddress]:
        """Learning stage over a clean window; returns devices learnt.

        Only allow-listed addresses enter the reference database —
        bystander traffic in the learning capture is ignored.
        """
        learnt: set[MacAddress] = set()
        for device, signature in self.builder.build_table(table).items():
            if device in allowed:
                self.database.add(device, signature)
                learnt.add(device)
        return learnt

    def check_window(self, table: FrameTable) -> list[SpoofCheck]:
        """Fingerprint one detection window; verdict per active device.

        The active devices are the senders with rows in ``table`` (a
        window slice shares its parent's ``senders`` tuple).  One
        :func:`~repro.core.matcher.batch_match_signatures` call matches
        the window's signatures, and :meth:`check_matches` decides.
        """
        signatures = self.builder.build_table(table)
        scores = batch_match_signatures(list(signatures.values()), self.database)
        return self.check_matches(
            matched_candidates(signatures, scores, self.database),
            table.active_senders(),
        )

    def check_matches(
        self, matches: Sequence[WindowCandidate], active: set[MacAddress]
    ) -> list[SpoofCheck]:
        """The spoof rule: verdicts off a window's matched candidates.

        ``matches`` hold their rows of this detector's database's score
        matrix (``ValueError`` otherwise); ``active`` is every sender
        seen in the window — one too quiet for a signature has no row
        and is INSUFFICIENT.  A device's self-similarity is its own
        column of its row, and its best other similarity the maximum of
        the other columns (0.0 with one reference).  Batch
        :meth:`check_window` and the streaming spoof guard decide here.
        """
        references = reference_axis(matches, self.database)
        column = {device: index for index, device in enumerate(references)}
        rows = {candidate.device: candidate.scores for candidate in matches}
        checks: list[SpoofCheck] = []
        for device in sorted(active, key=lambda m: m.value):
            if device not in column:
                verdict, self_sim, best_other = SpoofVerdict.UNKNOWN_DEVICE, 0.0, 0.0
            elif device not in rows:
                verdict, self_sim, best_other = SpoofVerdict.INSUFFICIENT, 0.0, 0.0
            else:
                own = column[device]
                self_sim = float(rows[device][own])
                # Clipped cosine scores are >= 0, so the best other
                # reference is the other columns' maximum (0.0 if none).
                best_other = float(np.delete(rows[device], own).max(initial=0.0))
                genuine = self_sim >= self.accept_threshold and (
                    self_sim >= best_other + self.margin
                )
                verdict = SpoofVerdict.GENUINE if genuine else SpoofVerdict.SPOOFED
            checks.append(SpoofCheck(device, verdict, self_sim, best_other))
        return checks
