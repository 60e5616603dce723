"""Online adapters for the Section VII applications.

Each adapter turns one batch application into a window analyzer the
:class:`~repro.streaming.engine.StreamEngine` drives: the engine calls
:meth:`~WindowAnalyzer.on_table` for every routed row span of a chunk
(optional pre-window state) and :meth:`~WindowAnalyzer.on_window`
whenever a detection window closes, and the adapter answers with typed
alert events.  ``on_window`` also receives the window's candidates as
the engine's :class:`~repro.streaming.matcher.OnlineMatcher` matched
them, in the one Algorithm 1 call per closed window.  The spoof guard
and the live tracker read their verdicts off those rows through the
batch detectors' rules (``SpoofDetector.check_matches``,
``DeviceTracker.link_matches``), so batch and streaming verdicts are
computed by the same code.  The rogue-AP guard matches the AP's
own-frame signature, which the engine never builds, in its own
one-row call (``RogueApDetector.check_signature``).
"""

from __future__ import annotations

import numpy as np

from repro.dot11.mac import MacAddress
from repro.applications.rogue_ap import RogueApDetector, ap_own_rows
from repro.applications.spoof_detector import SpoofDetector, SpoofVerdict
from repro.applications.tracker import DeviceTracker, TrackingReport
from repro.core.database import ReferenceDatabase
from repro.streaming.builder import StreamingSignatureBuilder
from repro.streaming.events import (
    PseudonymLinked,
    RogueApAlert,
    SpoofAlert,
    StreamEvent,
)
from repro.streaming.matcher import StreamCandidate
from repro.streaming.windows import ClosedWindow
from repro.traces.table import FrameTable


class WindowAnalyzer:
    """Base analyzer: override the hooks you need."""

    def on_table(self, table: FrameTable, lo: int, hi: int) -> None:
        """Called for every routed row span ``[lo, hi)`` of a chunk.

        Spans arrive after the windows their rows close have been
        handled.  The default does nothing.  A table is columns only,
        so an analyzer with row-level state reads the same fields from
        every chunk source (interned, wire-decoded or mask-selected).
        """

    def on_window(
        self, closed: ClosedWindow, matches: list[StreamCandidate]
    ) -> list[StreamEvent]:
        """Called when a detection window closes; returns alert events.

        ``matches`` are the engine's matched candidates, one per entry
        of ``closed.signatures`` (none without a non-empty database).
        """
        return []


def _window_rows(
    closed: ClosedWindow, matches: list[StreamCandidate], database: ReferenceDatabase
) -> list[StreamCandidate]:
    """The engine's matches of ``closed`` as rows of ``database``.

    An empty database matches nothing: each candidate then stands
    unmatched (no references), as a batch call leaves it.  Unmatched
    candidates with a non-empty database mean the engine matched
    against another database or none, and are refused.
    """
    if not matches and len(database) == 0:
        return [
            StreamCandidate(device, closed.index, closed.signatures)
            for device in closed.signatures
        ]
    if len(matches) != len(closed.signatures):
        raise ValueError("window candidates were not matched against this database")
    return matches


class OnlineSpoofGuard(WindowAnalyzer):
    """MAC-spoof detection per closed window (Section VII-B1, live).

    Wraps a learnt :class:`~repro.applications.spoof_detector.SpoofDetector`;
    every closed window's matched candidates are checked against the
    allow-list references and non-genuine verdicts become
    :class:`~repro.streaming.events.SpoofAlert` events; the engine
    must match against ``detector.database``.  ``alert_on`` selects
    which verdicts are alert-worthy (the default flags spoofed and
    unknown devices; INSUFFICIENT windows are routine on quiet
    devices).
    """

    def __init__(
        self,
        detector: SpoofDetector,
        alert_on: frozenset[SpoofVerdict] = frozenset(
            {SpoofVerdict.SPOOFED, SpoofVerdict.UNKNOWN_DEVICE}
        ),
    ) -> None:
        self.detector = detector
        self.alert_on = alert_on

    def on_window(
        self, closed: ClosedWindow, matches: list[StreamCandidate]
    ) -> list[StreamEvent]:
        rows = _window_rows(closed, matches, self.detector.database)
        checks = self.detector.check_matches(rows, closed.senders)
        return [
            SpoofAlert(
                timestamp_us=closed.end_us,
                window_index=closed.index,
                device=check.device,
                verdict=check.verdict.value,
                self_similarity=check.self_similarity,
                best_other_similarity=check.best_other_similarity,
            )
            for check in checks
            if check.verdict in self.alert_on
        ]


class OnlineRogueApGuard(WindowAnalyzer):
    """Rogue-AP detection per closed window (Section VII-B2, live).

    Maintains its own per-window accumulator over the AP's *own*
    frames, selected with the batch detector's row mask
    (:func:`~repro.applications.rogue_ap.ap_own_rows`: forwarded data,
    read from the from-DS bit of the ``flags`` column, is excluded),
    and emits a :class:`~repro.streaming.events.RogueApAlert` whenever
    a window's fingerprint fails the reference check.  Assumes tumbling
    windows — each frame belongs to exactly one AP accumulation span.
    """

    def __init__(self, detector: RogueApDetector, ap: MacAddress) -> None:
        self.detector = detector
        self.ap = ap
        self._builder = self._new_builder()
        self._own_frames = 0

    def _new_builder(self) -> StreamingSignatureBuilder:
        return StreamingSignatureBuilder(
            self.detector.parameter,
            bins=self.detector.builder.bins,
            min_observations=self.detector.builder.min_observations,
        )

    def on_table(self, table: FrameTable, lo: int, hi: int) -> None:
        span = table.slice_rows(lo, hi)
        own = ap_own_rows(span, self.ap)
        count = int(np.count_nonzero(own))
        if count:
            # The builder carries its channel clock across calls, so
            # the AP's own frames form one continuous stream.
            self._own_frames += count
            self._builder.update_table(span.select(own))

    def on_window(
        self, closed: ClosedWindow, matches: list[StreamCandidate]
    ) -> list[StreamEvent]:
        signature = self._builder.signature(self.ap)
        observations = self._own_frames
        self._builder = self._new_builder()  # next tumbling span
        self._own_frames = 0
        verdict = self.detector.check_signature(
            signature, self.ap, observations=observations
        )
        if not verdict.is_rogue:
            return []
        return [
            RogueApAlert(
                timestamp_us=closed.end_us,
                window_index=closed.index,
                ap=self.ap,
                similarity=verdict.similarity,
                observations=verdict.observations,
            )
        ]


class LiveTracker(WindowAnalyzer):
    """Cross-window pseudonym linking (Section VII-B3, live).

    The paper's tracker becomes a true live tracker: every closed
    window's randomised-looking senders are linked off their rows of
    the engine's match (which must be against ``tracker.database``) and
    each link (or explicit non-link) is emitted as a
    :class:`~repro.streaming.events.PseudonymLinked` event.  The
    accumulated :class:`~repro.applications.tracker.TrackingReport`
    stays queryable mid-stream via :attr:`report`.
    """

    def __init__(self, tracker: DeviceTracker) -> None:
        self.tracker = tracker
        self.report = TrackingReport()

    def on_window(
        self, closed: ClosedWindow, matches: list[StreamCandidate]
    ) -> list[StreamEvent]:
        rows = _window_rows(closed, matches, self.tracker.database)
        links = self.tracker.link_matches(rows)
        self.report.links.extend(links)
        return [
            PseudonymLinked(
                timestamp_us=closed.end_us,
                window_index=link.window_index,
                pseudonym=link.pseudonym,
                linked_device=link.linked_device,
                similarity=link.similarity,
            )
            for link in links
        ]
