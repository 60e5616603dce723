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

import numpy as np

from repro.dot11.mac import MacAddress
from repro.core.database import ReferenceDatabase
from repro.core.matcher import batch_match_signatures
from repro.core.parameters import InterArrivalTime, NetworkParameter
from repro.core.signature import Signature, SignatureBuilder
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
    attackers whose traffic resembles a different known device.
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
        window slice shares its parent's ``senders`` tuple).
        """
        return self.check_signatures(
            self.builder.build_table(table), table.active_senders()
        )

    def check_signatures(
        self,
        signatures: dict[MacAddress, Signature],
        active: set[MacAddress],
    ) -> list[SpoofCheck]:
        """Verdicts from already-built window signatures.

        ``active`` is every sender seen in the window — devices too
        quiet to clear the signature gate still get an INSUFFICIENT
        verdict.  The allow-listed devices with a signature are matched
        in one :func:`~repro.core.matcher.batch_match_signatures` call:
        a device's self-similarity is its own column of its row, and
        its best other similarity the maximum of the other columns
        (0.0 with one reference).  This is also the streaming spoof
        guard's per-window entry point.
        """
        ordered = sorted(active, key=lambda m: m.value)
        matched = [d for d in ordered if d in self.database and d in signatures]
        scores = batch_match_signatures(
            [signatures[device] for device in matched], self.database
        )
        column = {device: index for index, device in enumerate(self.database)}
        rows = np.arange(len(matched))
        own = [column[device] for device in matched]
        self_sims = scores[rows, own]
        # Clipped cosine scores are >= 0, so with the own column zeroed
        # a row's maximum is the best other reference (0.0 if none).
        scores[rows, own] = 0.0
        best_others = scores.max(axis=1, initial=0.0)
        evidence = dict(zip(matched, zip(self_sims.tolist(), best_others.tolist())))
        checks: list[SpoofCheck] = []
        for device in ordered:
            if device not in self.database:
                verdict, self_sim, best_other = SpoofVerdict.UNKNOWN_DEVICE, 0.0, 0.0
            elif device not in evidence:
                verdict, self_sim, best_other = SpoofVerdict.INSUFFICIENT, 0.0, 0.0
            else:
                self_sim, best_other = evidence[device]
                genuine = self_sim >= self.accept_threshold and (
                    self_sim >= best_other + self.margin
                )
                verdict = SpoofVerdict.GENUINE if genuine else SpoofVerdict.SPOOFED
            checks.append(SpoofCheck(device, verdict, self_sim, best_other))
        return checks
