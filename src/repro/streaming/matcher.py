"""Incremental matching of window candidates against a live database.

:class:`OnlineMatcher` rides the packed matrix engine
(:func:`~repro.core.matcher.batch_match_signatures`): each closed
window is matched in one matrix product per frame type.  The window's
candidates arrive as arrays: ``closed.signatures`` is its builder's
:class:`~repro.core.signature.SignatureBlock`, whose padded
per-frame-type histogram rows the matcher scores directly, so matching
a window builds no :class:`~repro.core.signature.Signature`.  Reference
updates may be interleaved with live matching — the deployment loop
the paper's applications imply (learn newly authorised devices,
retire old ones, keep fingerprinting): the database's ``add`` and
``remove`` drop its packed view, and the next window's match rebuilds
it.

The window's score matrix is the result, carried by the batch path's
candidate class: :class:`StreamCandidate` *is*
:class:`~repro.core.detection.WindowCandidate`, which holds its row of
the matrix, the window's reference-device tuple (the column order) and
the window's block, from which its ``signature`` is read out only when a
consumer asks for it.
The identification test needs only the argmax of Algorithm 1's
similarity vector, so :attr:`StreamCandidate.best` reads it straight
off the row, and a consumer that needs one reference's score reads
that reference's column.  The engine hands these candidates to every
analyzer (:mod:`repro.streaming.apps`), so a closed window is matched
once, with the cosine measure the guards' thresholds are stated in.
"""

from __future__ import annotations

from repro.core.database import ReferenceDatabase
from repro.core.detection import WindowCandidate, matched_candidates
from repro.core.matcher import batch_match_signatures
from repro.streaming.windows import ClosedWindow


#: A matched window candidate of the live path: the batch path's class.
StreamCandidate = WindowCandidate


class OnlineMatcher:
    """Algorithm 1 over closed windows, with live reference updates."""

    def __init__(self, database: ReferenceDatabase | None = None) -> None:
        self.database = database if database is not None else ReferenceDatabase()

    def match_window(self, closed: ClosedWindow) -> list[StreamCandidate]:
        """Match every candidate of one closed window in a single batch."""
        signatures = closed.signatures
        if not signatures or len(self.database) == 0:
            return []
        scores = batch_match_signatures(signatures, self.database)
        return matched_candidates(signatures, scores, self.database, closed.index)
