"""Online signature construction: chunks in, one dense state.

:class:`StreamingSignatureBuilder` is the incremental counterpart of
:class:`~repro.core.signature.SignatureBuilder`: it consumes columnar
row spans (:meth:`~StreamingSignatureBuilder.update_table`) through the
parameter's one extractor,
:meth:`~repro.core.parameters.NetworkParameter.observe_table`, handing
it the channel clock ``t_{i-1}`` carried from the previous span, and
keeps every resident device's bin counters in one dense state per
builder:

* ``counts[row, column, bin]`` and ``totals[row, column]`` — one row per
  resident device, one column per frame type the builder has met;
* a device → row dict keyed by the 48-bit MAC integer, with rows
  handed out in first-kept-observation order and never freed, a row →
  :class:`~repro.dot11.mac.MacAddress` list for read-out, and a
  frame-type → column dict;
* a first-seen sequence number per ``(row, column)``, so each device's
  frame types read out in the order they first appeared — the dict
  order of its signature and of the checkpoint payload;
* the channel clock ``previous_t``: the last fed row's timestamp, for
  the inter-arrival and medium-access parameters (``None`` for the
  others, which carry no memory from frame to frame).

The counters are *exactly* the batch builder's histogram counts, and
both builders read signatures out through one
:class:`~repro.core.signature.SignatureBlock`, so
:meth:`signature`/:meth:`signatures` reproduce
:meth:`SignatureBuilder.build` bin-for-bin on the same frames, in any
chunking (property-tested in ``tests/test_streaming_builder.py`` and
``tests/test_streaming_chunked.py``).  :meth:`signatures` gates every
resident row with one reduction and returns the gated devices' arrays
as that block, which a closed window hands to the matcher as is: a
:class:`~repro.core.signature.Signature` is built only for a device a
consumer looks up in it.  A span folds in at a cost that follows its
kept observations, not the resident state: its senders are looked up
by MAC integer (:attr:`~repro.traces.table.FrameTable.sender_values`,
no address is hashed), and counts and totals grow by one
``np.add.at`` scatter-add over the span's own ``(row, column, bin)``
cells.  Every checkpoint-visible detail is the same for every chunking
of the same rows (payloads pinned in ``tests/golden/``, DESIGN.md §8).
"""

from __future__ import annotations

from itertools import repeat
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.traces.table import FrameTable

from repro.dot11.mac import MacAddress
from repro.core.histogram import BinSpec
from repro.core.parameters import NetworkParameter
from repro.core.signature import DEFAULT_MIN_OBSERVATIONS, Signature, SignatureBlock
from repro.persistence.checkpoint import checked_mac, checked_time

#: First-seen sequence of a (row, column) pair holding no observation.
_UNSEEN = -1


class StreamingSignatureBuilder:
    """Per-device incremental histograms.

    One builder is bound to a network parameter and a bin spec, like
    the batch :class:`~repro.core.signature.SignatureBuilder`; chunks
    are fed through :meth:`update_table` and signatures can be read out
    at any instant.  Memory is O(resident devices × frame types ×
    bins), independent of stream length: a window's builder holds the
    devices of that window and is dropped when the window closes.
    """

    def __init__(
        self,
        parameter: NetworkParameter,
        bins: BinSpec | None = None,
        min_observations: int = DEFAULT_MIN_OBSERVATIONS,
    ) -> None:
        if min_observations < 1:
            raise ValueError(f"min_observations must be >= 1: {min_observations}")
        self.parameter = parameter
        self.bins = bins if bins is not None else parameter.default_bins()
        self.min_observations = min_observations
        self._bin_count = self.bins.bin_count
        #: The channel clock ``t_{i-1}`` (the last fed row's timestamp);
        #: ``None`` before the first row and for a parameter without
        #: table memory.
        self._previous_t: float | None = None
        self._clear()

    def _clear(self) -> None:
        """Drop every device and frame type (empty dense state)."""
        #: MAC integer → row, in first-kept-observation order.  Integer
        #: keys hash in C, where a MacAddress hashes in Python.
        self._rows: dict[int, int] = {}
        #: row → resident device, for read-out.
        self._devices: list[MacAddress] = []
        self._columns: dict[str, int] = {}
        #: column → frame-type key (inverse of ``_columns``).
        self._ftype_keys: list[str] = []
        #: Next first-seen sequence number.
        self._sequence = 0
        self._counts = np.zeros((0, 0, self._bin_count))
        self._totals = np.zeros((0, 0))
        self._seen = np.full((0, 0), _UNSEEN, dtype=np.int64)

    def _reserve(self) -> None:
        """Grow the arrays to hold every row handed out and every
        column: rows to twice the demand, so a window's population
        regrows them once or twice, and columns (a handful of frame
        types) to the demand."""
        rows, columns = len(self._devices), len(self._ftype_keys)
        held_rows, held_columns = self._totals.shape
        if rows <= held_rows and columns <= held_columns:
            return
        rows = held_rows if rows <= held_rows else 2 * rows
        columns = max(held_columns, columns)
        counts = np.zeros((rows, columns, self._bin_count))
        counts[:held_rows, :held_columns] = self._counts
        totals = np.zeros((rows, columns))
        totals[:held_rows, :held_columns] = self._totals
        seen = np.full((rows, columns), _UNSEEN, dtype=np.int64)
        seen[:held_rows, :held_columns] = self._seen
        self._counts, self._totals, self._seen = counts, totals, seen

    def _new_rows(self, values: list[int], devices: list[MacAddress]) -> np.ndarray:
        """Rows for newly kept devices, in order after the held ones;
        the caller reserves the arrays."""
        start = len(self._devices)
        self._devices.extend(devices)
        self._rows.update(zip(values, range(start, len(self._devices))))
        return np.arange(start, len(self._devices))

    def _column(self, ftype_key: str) -> int:
        """The frame type's column, added on first use (the caller
        reserves the arrays)."""
        column = self._columns.get(ftype_key)
        if column is None:
            column = len(self._ftype_keys)
            self._columns[ftype_key] = column
            self._ftype_keys.append(ftype_key)
        return column

    def _columns_of(self, row: int) -> list[int]:
        """The row's frame-type columns in first-seen order."""
        seen = self._seen[row]
        columns = np.flatnonzero(seen != _UNSEEN)
        return columns[np.argsort(seen[columns])].tolist()

    # -- ingest --------------------------------------------------------
    def update_table(
        self, table: "FrameTable", lo: int = 0, hi: int | None = None
    ) -> int:
        """Consume rows ``[lo, hi)`` of a columnar chunk; returns how
        many observations were kept.

        Observations are extracted in one
        :meth:`~repro.core.parameters.NetworkParameter.observe_table`
        call over the span, against the channel clock the previous call
        left, binned with ``index_many`` and scatter-added into the
        dense counters at the span's own ``(row, column, bin)`` cells.
        The clock then advances past row ``hi - 1``, so a window
        spanning many chunks can be fed chunk by chunk, and the
        resulting state (counts, totals, device and frame-type order,
        channel clock) does not depend on where the chunks were cut.
        Unattributable ACK/CTS rows advance the clock without observing.
        """
        if hi is None:
            hi = len(table)
        if hi <= lo:
            return 0
        span = table.slice_rows(lo, hi)
        observed = self.parameter.observe_table(span, self._previous_t)
        if self.parameter.table_memory:
            self._previous_t = float(span.timestamp_us[-1])
        bin_idx = self.bins.index_many(observed.values)
        keep = bin_idx >= 0
        kept = int(np.count_nonzero(keep))
        if kept == 0:
            return 0
        sender_k = observed.sender_idx[keep]
        ftype_k = observed.ftype_idx[keep]
        bin_k = bin_idx[keep]
        self._fold(span, sender_k, ftype_k, bin_k, kept)
        return kept

    def _fold(
        self,
        table: "FrameTable",
        sender_k: np.ndarray,
        ftype_k: np.ndarray,
        bin_k: np.ndarray,
        kept: int,
    ) -> None:
        """Batch fold: one scatter-add over the span's (row, column, bin).

        Every step costs in proportion to the span's kept observations
        (and the chunk's intern tuple), not to the resident state.
        Increments are unit weights added into float counters that hold
        integers, so the counts do not depend on the order or grouping
        of the additions (integers are exact in float64).  Devices are
        looked up by MAC integer (:attr:`FrameTable.sender_values`).
        New devices take rows, and new (device, frame type) pairs take
        first-seen numbers, in first-kept-observation order, found with
        the reversed-scatter trick (duplicate fancy-assignment indices
        keep the last write) — so the orders do not depend on the
        chunking.
        """
        n_senders = len(table.senders)
        order = np.arange(kept, dtype=np.int64)
        first = np.full(n_senders, kept, dtype=np.int64)
        first[sender_k[::-1]] = order[::-1]
        codes = np.flatnonzero(first < kept)
        rows = np.fromiter(
            map(self._rows.get, table.sender_values[codes].tolist(), repeat(-1)),
            dtype=np.int64,
            count=codes.size,
        )
        row_of = np.zeros(n_senders, dtype=np.int64)
        row_of[codes] = rows
        fresh = codes[rows < 0]
        ftype_keys = table.ftype_keys
        fcodes = np.flatnonzero(np.bincount(ftype_k, minlength=len(ftype_keys)))
        column_of = np.zeros(len(ftype_keys), dtype=np.int64)
        column_of[fcodes] = [self._column(ftype_keys[f]) for f in fcodes.tolist()]
        if fresh.size:
            fresh = fresh[np.argsort(first[fresh])]
            row_of[fresh] = self._new_rows(
                table.sender_values[fresh].tolist(),
                list(map(table.senders.__getitem__, fresh.tolist())),
            )
        self._reserve()
        pair = row_of[sender_k] * self._totals.shape[1] + column_of[ftype_k]
        np.add.at(self._counts.reshape(-1), pair * self._bin_count + bin_k, 1.0)
        np.add.at(self._totals.reshape(-1), pair, 1.0)
        # Pairs never seen take the next sequence numbers in the order
        # of their first observation; each one's slot holds that
        # observation's index (among the unseen pairs') until numbered.
        seen = self._seen.reshape(-1)
        unseen = pair[seen[pair] == _UNSEEN]
        if unseen.size:
            order = order[: unseen.size]
            seen[unseen[::-1]] = order[::-1]
            firsts = unseen[seen[unseen] == order]
            seen[firsts] = np.arange(self._sequence, self._sequence + firsts.size)
            self._sequence += int(firsts.size)

    # -- read-out ------------------------------------------------------
    def signature(self, device: MacAddress) -> Signature | None:
        """The device's current signature (``None`` below the gate)."""
        row = self._rows.get(device.value)
        if row is None:
            return None
        return self._block(np.array([row])).get(device)

    def signatures(self) -> SignatureBlock:
        """Every resident device clearing the gate, as one block.

        The block holds a copy of the gated devices' counters, taken in
        one pass; a :class:`Signature` is built only for a device that
        is looked up in it.
        """
        return self._block(np.arange(self.resident_count))

    def _block(self, rows: np.ndarray) -> SignatureBlock:
        """The block of the devices held in ``rows`` that clear the
        gate, with frame types in first-seen order."""
        columns = len(self._ftype_keys)
        totals = self._totals[rows, :columns]
        # Masses are integers, exact in any summation order, so one
        # row reduction gates every device at once.
        gated = np.flatnonzero(totals.sum(axis=1) >= self.min_observations)
        rows = rows[gated]
        return SignatureBlock(
            list(map(self._devices.__getitem__, rows.tolist())),
            self._ftype_keys,
            self._counts[rows, :columns],
            totals[gated],
            self._seen[rows, :columns],
        )

    # -- checkpointing -------------------------------------------------
    def export_state(self) -> dict:
        """Everything needed to resume this builder mid-capture.

        The returned structure is JSON-shaped.  Devices are listed in
        row-assignment order and each device's frame types in
        first-seen order.
        """
        devices = []
        for value, row in self._rows.items():
            columns = self._columns_of(row)
            keys = [self._ftype_keys[column] for column in columns]
            devices.append(
                {
                    "mac": value,
                    "counts": dict(zip(keys, self._counts[row, columns].tolist())),
                    "totals": dict(zip(keys, self._totals[row, columns].tolist())),
                }
            )
        return {
            "parameter": self.parameter.name,
            "bin_count": self._bin_count,
            "min_observations": self.min_observations,
            "previous_t": self._previous_t,
            "devices": devices,
        }

    def restore_state(self, payload: dict) -> None:
        """Resume from :meth:`export_state` output.

        The builder must have been constructed with the same parameter,
        binning and gating configuration the snapshot was taken under —
        a mismatch raises ``ValueError`` instead of silently mixing
        incompatible histograms.  So does a channel clock that is not
        ``None`` or a finite number, or that a parameter without table
        memory would never carry, and a malformed device entry: a device
        that is not a 48-bit integer or is listed twice, a total without
        counts, or a frame type whose counts are not one finite
        non-negative integer per bin, or whose total is not their sum or
        is zero.
        """
        for key, mine in (
            ("parameter", self.parameter.name),
            ("bin_count", self._bin_count),
            ("min_observations", self.min_observations),
        ):
            theirs = payload.get(key)
            if theirs != mine:
                raise ValueError(
                    f"checkpoint {key} mismatch: snapshot has {theirs!r}, "
                    f"this builder has {mine!r}"
                )
        previous_t = checked_time(payload["previous_t"], "previous_t")
        if previous_t is not None and not self.parameter.table_memory:
            raise ValueError(
                f"checkpoint previous_t {previous_t!r}: parameter "
                f"{self.parameter.name!r} carries no channel clock"
            )
        entries = payload["devices"]
        devices = [
            MacAddress(checked_mac(entry["mac"], "device mac")) for entry in entries
        ]
        listed: set[int] = set()
        for device in devices:
            if device.value in listed:
                raise ValueError(f"checkpoint device {device} is listed twice")
            listed.add(device.value)
        checked = [
            self._checked_entry(device, entry)
            for device, entry in zip(devices, entries)
        ]
        self._previous_t = previous_t
        self._clear()
        rows = self._new_rows([device.value for device in devices], devices)
        for counts in checked:
            for ftype_key in counts:
                self._column(ftype_key)
        self._reserve()
        for row, counts in zip(rows, checked):
            for ftype_key, histogram in counts.items():
                column = self._columns[ftype_key]
                self._seen[row, column] = self._sequence
                self._sequence += 1
                self._counts[row, column] = histogram
                # Checked equal to the snapshot's total.
                self._totals[row, column] = histogram.sum()

    def _checked_entry(self, device: MacAddress, entry: dict) -> dict[str, np.ndarray]:
        """One checkpoint device entry's counts (frame type → bin
        counts), refused with ``ValueError`` (naming the device, and the
        frame type where there is one) unless they fit this builder."""
        counts = {}
        totals = entry["totals"]
        stray = totals.keys() - entry["counts"].keys()
        if stray:
            raise ValueError(
                f"checkpoint device {device} has totals but no counts for "
                f"frame types {sorted(stray)}"
            )
        for ftype_key, values in entry["counts"].items():
            where = f"device {device} frame type {ftype_key!r}"
            histogram = np.asarray(values, dtype=np.float64)
            if histogram.shape != (self._bin_count,):
                raise ValueError(
                    f"checkpoint {where} has {histogram.size} bin counts, this "
                    f"builder has {self._bin_count} bins"
                )
            # The counters hold whole observation counts.
            bad = histogram[
                ~np.isfinite(histogram)
                | (histogram < 0)
                | (histogram != np.floor(histogram))
            ]
            if bad.size:
                raise ValueError(
                    f"checkpoint {where} has a count that is not a finite "
                    f"non-negative integer: {float(bad[0])!r}"
                )
            total = checked_time(totals.get(ftype_key), f"{where} total")
            if total != histogram.sum():
                raise ValueError(
                    f"checkpoint {where} has total {total!r}, its counts sum to "
                    f"{histogram.sum()!r}"
                )
            # A frame type is listed from its first kept observation on.
            if not total:
                raise ValueError(f"checkpoint {where} holds no observation")
            counts[ftype_key] = histogram
        return counts

    # -- residency -----------------------------------------------------
    @property
    def resident_count(self) -> int:
        """Number of devices currently holding accumulators."""
        return len(self._rows)

    @property
    def channel_clock_us(self) -> float | None:
        """The channel clock: the last fed row's timestamp (``None``
        before any row, or for a parameter without table memory)."""
        return self._previous_t
