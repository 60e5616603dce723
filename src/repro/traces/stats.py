"""Per-trace summary statistics (the Table I analogue).

Summarises a trace the way the paper's Table I does: durations,
encryption, and the number of reference devices — i.e. devices whose
training-prefix activity clears the 50-observation minimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.traces.trace import Trace


@dataclass(frozen=True, slots=True)
class TraceStats:
    """One Table I row."""

    name: str
    total_duration_s: float
    training_duration_s: float
    candidate_duration_s: float
    encrypted: bool
    reference_devices: int
    total_frames: int
    attributed_frames: int
    distinct_senders: int

    @property
    def encryption_label(self) -> str:
        """Table I's encryption column."""
        return "WPA" if self.encrypted else "None"


def summarize_trace(
    trace: Trace, training_s: float, min_observations: int = 50
) -> TraceStats:
    """Compute the Table I row for one trace.

    Reference devices are counted exactly as the evaluation does: a
    signature builder over the training prefix with the minimum
    observation rule (the parameter choice barely matters for the
    count; inter-arrival is used as in the paper's headline method).
    """
    # Imported lazily: repro.traces must not depend on repro.core at
    # import time (core.parameters imports the columnar table layer).
    from repro.core.parameters import InterArrivalTime
    from repro.core.signature import SignatureBuilder

    split = trace.split(training_s)
    builder = SignatureBuilder(InterArrivalTime(), min_observations=min_observations)
    references = builder.build_table(split.training.table())
    sender_idx = trace.table().sender_idx
    attributed = sender_idx[sender_idx >= 0]
    return TraceStats(
        name=trace.name,
        total_duration_s=trace.duration_s,
        training_duration_s=split.training.duration_s,
        candidate_duration_s=split.validation.duration_s,
        encrypted=trace.encrypted,
        reference_devices=len(references),
        total_frames=len(trace),
        attributed_frames=int(attributed.size),
        distinct_senders=int(np.unique(attributed).size),
    )
