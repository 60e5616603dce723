"""Device tracking across MAC randomisation (Section VII-B3).

The paper's privacy observation: the signature traces a user "even in
cases where the device regularly changes its MAC address in order to
stay anonymous".  :class:`DeviceTracker` demonstrates it — it links
the pseudonymous identities seen across observation windows to learnt
device signatures, reporting which pseudonyms belong to which known
device.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.dot11.mac import MacAddress
from repro.core.database import ReferenceDatabase
from repro.core.detection import WindowCandidate, matched_candidates, reference_axis
from repro.core.matcher import batch_match_signatures
from repro.core.parameters import InterArrivalTime, NetworkParameter
from repro.core.signature import SignatureBuilder
from repro.traces.table import FrameTable


@dataclass(frozen=True, slots=True)
class PseudonymLink:
    """One pseudonymous address linked (or not) to a known device."""

    pseudonym: MacAddress
    linked_device: MacAddress | None
    similarity: float
    window_index: int


@dataclass
class TrackingReport:
    """All pseudonym links across the observed windows."""

    links: list[PseudonymLink] = field(default_factory=list)

    def trajectory(self, device: MacAddress) -> list[PseudonymLink]:
        """Pseudonyms attributed to one device, in window order."""
        return sorted(
            (link for link in self.links if link.linked_device == device),
            key=lambda link: link.window_index,
        )

    def linking_accuracy(self, truth: dict[MacAddress, MacAddress]) -> float:
        """Fraction of links correct under a pseudonym→device truth map.

        Pseudonyms absent from ``truth`` (genuinely unknown devices)
        count as correct only when left unlinked.
        """
        if not self.links:
            return 0.0
        correct = 0
        for link in self.links:
            expected = truth.get(link.pseudonym)
            if expected is None:
                correct += link.linked_device is None
            else:
                correct += link.linked_device == expected
        return correct / len(self.links)


class DeviceTracker:
    """Links randomised MAC addresses back to learnt signatures."""

    def __init__(
        self,
        parameter: NetworkParameter | None = None,
        link_threshold: float = 0.5,
        min_observations: int = 50,
        database: ReferenceDatabase | None = None,
    ) -> None:
        """``database`` seeds the tracker with an existing reference
        database, e.g. a loaded store
        (:func:`repro.persistence.load_database`); the default is a
        fresh database filled by :meth:`learn`."""
        if not 0.0 <= link_threshold <= 1.0:
            raise ValueError(f"threshold out of range: {link_threshold}")
        self.parameter = parameter if parameter is not None else InterArrivalTime()
        self.link_threshold = link_threshold
        self.builder = SignatureBuilder(
            self.parameter, min_observations=min_observations
        )
        self.database = database if database is not None else ReferenceDatabase()

    def learn(self, table: FrameTable) -> int:
        """Learn device signatures from a capture with true addresses."""
        signatures = self.builder.build_table(table)
        for device, signature in signatures.items():
            self.database.add(device, signature)
        return len(signatures)

    def track_window(
        self, table: FrameTable, window_index: int = 0
    ) -> list[PseudonymLink]:
        """Link every pseudonymous sender in one observation window:
        one :func:`~repro.core.matcher.batch_match_signatures` call
        matches the window's signatures, and :meth:`link_matches` links.
        """
        signatures = self.builder.build_table(table)
        scores = batch_match_signatures(list(signatures.values()), self.database)
        return self.link_matches(
            matched_candidates(signatures, scores, self.database, window_index)
        )

    def link_matches(self, matches: Sequence[WindowCandidate]) -> list[PseudonymLink]:
        """The link rule: each pseudonym's link off its matched row.

        Only locally-administered (randomised-looking) addresses are
        treated as pseudonyms; devices still using their real address
        are trivially trackable and skipped.  ``matches`` hold their
        rows of this tracker's database's score matrix (``ValueError``
        otherwise).  A row's first maximum is its link, kept only when
        above 0.0 and at least ``link_threshold``; a tie goes to the
        earliest-registered reference.  Batch :meth:`track_window` and
        the streaming live tracker link here.
        """
        reference_axis(matches, self.database)
        links: list[PseudonymLink] = []
        for candidate in matches:
            if not candidate.device.is_locally_administered:
                continue
            linked, similarity = candidate.best
            if not (similarity > 0.0 and similarity >= self.link_threshold):
                linked = None
            links.append(
                PseudonymLink(
                    pseudonym=candidate.device,
                    linked_device=linked,
                    similarity=similarity,
                    window_index=candidate.window_index,
                )
            )
        return links

    def track(self, windows: Iterable[FrameTable]) -> TrackingReport:
        """Track across a sequence of observation windows."""
        report = TrackingReport()
        for index, table in enumerate(windows):
            report.links.extend(self.track_window(table, index))
        return report
