"""The five network parameters of Section III.

Each parameter turns a captured frame sequence into per-sender
observations ``(sender, frame type, value)`` following the paper's
Section IV-A semantics:

* frames whose sender a passive monitor cannot attribute (ACK, CTS)
  produce **no observation** — their measured value is dropped — but
  they still advance the channel clock (``t_{i-1}``) for the
  time-derived parameters, exactly as in the paper's Figure 1 example;
* ``rate_i`` and ``size_i`` come straight from the Radiotap header;
* ``tt_i = size_i / rate_i`` (µs) is the paper's simplified
  transmission time;
* ``i_i = t_i − t_{i−1}`` is the inter-arrival between consecutive
  end-of-receptions on the channel, regardless of sender;
* ``mtime_i = (t_i − tt_i) − t_{i−1}`` is the idle gap the sender
  waited between the previous frame's end and its own frame's start.

All parameters also accept a *default binning* used throughout the
evaluation (ablated in ``benchmarks/test_ablation_bin_width.py``).

Each parameter's extractor is :meth:`~NetworkParameter.observe_table`
over a columnar :class:`~repro.traces.table.FrameTable`: the
time-derived parameters become shifted-array subtractions under a
sender mask (DESIGN.md §6).  The streaming builder
(:class:`~repro.streaming.builder.StreamingSignatureBuilder`) calls
``observe_table`` on each chunk span with the channel clock it carried
from the previous span.  The per-frame scalar extractors survive as
test oracles (``tests/oracles.py``); the equivalence is property-pinned
in ``tests/test_parameters.py`` and ``tests/test_table.py``.
"""

from __future__ import annotations

import numpy as np

from repro.dot11.phy import PAPER_RATE_AXIS
from repro.core.histogram import BinSpec, CategoricalBins, UniformBins
from repro.traces.table import FrameTable, TableObservations


class NetworkParameter:
    """Base class: a passively measurable per-frame quantity."""

    #: Short identifier used in tables and the CLI.
    name: str = "abstract"
    #: Human-readable label matching the paper's terminology.
    label: str = "abstract parameter"
    #: Frames of channel memory an observation consumes (0 for pure
    #: per-frame values, 1 for the ``t_{i-1}``-derived parameters).
    #: The detection fast path uses this to slice a whole-trace
    #: observation batch into per-window batches: an observation at
    #: table row ``p`` is valid for a window starting at row ``lo``
    #: iff ``p >= lo + table_memory`` (DESIGN.md §6); a streaming
    #: builder carries a channel clock iff it is 1.
    table_memory: int = 0

    def default_bins(self) -> BinSpec:
        """Binning used by the evaluation unless overridden."""
        raise NotImplementedError

    def observe_table(
        self, table: FrameTable, previous_t: float | None = None
    ) -> TableObservations:
        """The table's attributed observations as aligned arrays.

        ``(sender_idx, ftype_idx, values, positions)`` in row order;
        ``positions`` are the table rows the observations came from.
        ``previous_t`` is the channel clock before row 0 (the previous
        chunk's last end-of-reception): a parameter with
        ``table_memory == 1`` then observes row 0 against it, while
        without it row 0 only arms the clock.  Parameters without
        memory ignore it.
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


def _attributable_positions(table: FrameTable) -> np.ndarray:
    """Rows that can yield an observation (sender known)."""
    return np.flatnonzero(table.sender_idx >= 0)


def _clocked(
    table: FrameTable, previous_t: float | None
) -> tuple[np.ndarray, np.ndarray]:
    """Rows yielding a time-derived observation and each one's
    ``t_{i-1}``: attributable rows with a predecessor on the channel.

    Row 0's predecessor is the carried clock ``previous_t``; without
    one, row 0 has no ``t_{i-1}``.  ACK/CTS rows advance the clock but
    are masked out.
    """
    t = table.timestamp_us
    if previous_t is None:
        positions = np.flatnonzero(table.sender_idx[1:] >= 0) + 1
        return positions, t[positions - 1]
    positions = np.flatnonzero(table.sender_idx >= 0)
    before = t[positions - 1]
    if positions.size and positions[0] == 0:
        before[0] = previous_t
    return positions, before


def _gathered(
    table: FrameTable, positions: np.ndarray, values: np.ndarray
) -> TableObservations:
    return TableObservations(
        sender_idx=table.sender_idx[positions],
        ftype_idx=table.ftype_idx[positions],
        values=values,
        positions=positions,
    )


class TransmissionRate(NetworkParameter):
    """``p_i = rate_i`` — the Radiotap-reported transmission rate."""

    name = "rate"
    label = "Transmission rate"

    def default_bins(self) -> BinSpec:
        return CategoricalBins(categories=tuple(float(r) for r in PAPER_RATE_AXIS))

    def observe_table(
        self, table: FrameTable, previous_t: float | None = None
    ) -> TableObservations:
        positions = _attributable_positions(table)
        return _gathered(table, positions, table.rate_mbps[positions])


class FrameSize(NetworkParameter):
    """``p_i = size_i`` — the full MAC-layer frame size in bytes."""

    name = "size"
    label = "Frame size"

    def default_bins(self) -> BinSpec:
        return UniformBins(lo=0.0, hi=2400.0, width=32.0)

    def observe_table(
        self, table: FrameTable, previous_t: float | None = None
    ) -> TableObservations:
        positions = _attributable_positions(table)
        return _gathered(table, positions, table.size[positions])


class TransmissionTime(NetworkParameter):
    """``tt_i = size_i / rate_i`` in microseconds (Section IV-A)."""

    name = "txtime"
    label = "Transmission time"

    def default_bins(self) -> BinSpec:
        # The range must reach size/rate of a full frame at 1 Mbps
        # (~19 ms), otherwise low-rate broadcast traffic piles into the
        # clip bin and washes out device differences.
        return UniformBins(lo=0.0, hi=20000.0, width=20.0)

    def observe_table(
        self, table: FrameTable, previous_t: float | None = None
    ) -> TableObservations:
        # size * 8 / rate over float64 columns is bit-identical to
        # paper_transmission_time_us (sizes are exact in float64).
        positions = _attributable_positions(table)
        values = table.size[positions] * 8.0 / table.rate_mbps[positions]
        return _gathered(table, positions, values)


class InterArrivalTime(NetworkParameter):
    """``i_i = t_i − t_{i−1}`` between consecutive end-of-receptions.

    The previous frame may come from *any* sender (or be an
    unattributable ACK/CTS); only the attribution of the value follows
    the current frame's sender.  The first frame of a capture yields no
    observation.
    """

    name = "interarrival"
    label = "Inter-arrival time"
    table_memory = 1

    def default_bins(self) -> BinSpec:
        # The paper's histograms span 0-2500 µs (Figure 2); longer
        # idle-tail gaps are dropped rather than clipped — a clip bin
        # would dominate every lightly-loaded device's signature and
        # make them mutually indistinguishable.
        return UniformBins(lo=0.0, hi=2500.0, width=50.0, drop_outside=True)

    def observe_table(
        self, table: FrameTable, previous_t: float | None = None
    ) -> TableObservations:
        # The channel clock vectorizes as a shifted-array subtraction:
        # t_{i-1} is simply the timestamp column shifted by one row,
        # because *every* frame (attributable or not) advances it.
        positions, before = _clocked(table, previous_t)
        return _gathered(table, positions, table.timestamp_us[positions] - before)


class MediumAccessTime(NetworkParameter):
    """``mtime_i = (t_i − tt_i) − t_{i−1}`` — the sender's idle wait.

    The frame's start-of-reception is estimated as ``t_i − tt_i`` using
    the paper's simplified transmission time; subtracting the previous
    end-of-reception yields how long the sender left the medium idle
    (DIFS + backoff slots, SIFS inside protected exchanges).
    """

    name = "access"
    label = "Medium access time"
    table_memory = 1

    def default_bins(self) -> BinSpec:
        # Same tail treatment as the inter-arrival time: only waits in
        # the contention range carry device information.
        return UniformBins(lo=0.0, hi=1000.0, width=20.0, drop_outside=True)

    def observe_table(
        self, table: FrameTable, previous_t: float | None = None
    ) -> TableObservations:
        # Same shift-and-mask as the inter-arrival time, with the
        # start-of-reception estimate t_i − tt_i in place of t_i.
        positions, before = _clocked(table, previous_t)
        tt = table.size[positions] * 8.0 / table.rate_mbps[positions]
        values = (table.timestamp_us[positions] - tt) - before
        return _gathered(table, positions, values)


#: The paper's five parameters, in its Section III order.
ALL_PARAMETERS: tuple[NetworkParameter, ...] = (
    TransmissionRate(),
    FrameSize(),
    MediumAccessTime(),
    TransmissionTime(),
    InterArrivalTime(),
)


def parameter_by_name(name: str) -> NetworkParameter:
    """Look up one of the five parameters by its short name."""
    for parameter in ALL_PARAMETERS:
        if parameter.name == name:
            return parameter
    raise KeyError(f"unknown network parameter: {name!r}")
