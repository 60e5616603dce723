"""Online signature construction: chunks in, one dense state.

:class:`StreamingSignatureBuilder` is the incremental counterpart of
:class:`~repro.core.signature.SignatureBuilder`: it consumes columnar
row spans (:meth:`~StreamingSignatureBuilder.update_table`) through the
parameter's :meth:`~repro.core.parameters.NetworkParameter.online`
extractor, which carries the channel clock from span to span, and keeps
every resident device's bin counters in one dense state per builder:

* ``counts[row, column, bin]`` and ``totals[row, column]`` — one row per
  resident device, one column per frame type the builder has met;
* a device → row dict in first-kept-observation order (rows freed by
  eviction are reused) and a frame-type → column dict;
* a first-seen sequence number per ``(row, column)``, so each device's
  frame types read out in the order they first appeared — the dict
  order of its signature and of the checkpoint payload;
* per-row ``t0_us`` and ``last_seen_us`` vectors.

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
consumer looks up in it.  A chunk folds in with one flat
``np.bincount`` over ``(row, column, bin)`` and one dict lookup per
sender; every checkpoint-visible detail is the same for every chunking
of the same rows (payloads pinned in ``tests/golden/``, DESIGN.md §8).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

import numpy as np

if TYPE_CHECKING:
    from repro.traces.table import FrameTable

from repro.dot11.mac import MacAddress
from repro.core.histogram import BinSpec
from repro.core.parameters import NetworkParameter
from repro.core.signature import DEFAULT_MIN_OBSERVATIONS, Signature, SignatureBlock

#: First-seen sequence of a (row, column) pair holding no observation.
_UNSEEN = -1


class StreamingSignatureBuilder:
    """Per-device incremental histograms.

    One builder is bound to a network parameter and a bin spec, like
    the batch :class:`~repro.core.signature.SignatureBuilder`; chunks
    are fed through :meth:`update_table` and signatures can be read out
    at any instant.  Memory is O(resident devices × frame types ×
    bins), independent of stream length; :meth:`evict` and
    :meth:`evict_idle` bound the resident set.
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
        self._stream = parameter.online()
        self._bin_count = self.bins.bin_count
        self.frames_seen = 0
        self.observations_kept = 0
        self._clear()

    def _clear(self) -> None:
        """Drop every device and frame type (empty dense state)."""
        self._rows: dict[MacAddress, int] = {}
        self._columns: dict[str, int] = {}
        #: column → frame-type key (inverse of ``_columns``).
        self._ftype_keys: list[str] = []
        self._free_rows: list[int] = []
        #: Rows ever handed out: the used prefix of the arrays.
        self._row_count = 0
        #: Next first-seen sequence number.
        self._sequence = 0
        self._counts = np.zeros((0, 0, self._bin_count))
        self._totals = np.zeros((0, 0))
        self._seen = np.full((0, 0), _UNSEEN, dtype=np.int64)
        self._t0_us = np.zeros(0)
        self._last_seen_us = np.zeros(0)

    def _reserve(self, rows: int, columns: int) -> None:
        """Grow the arrays (doubling) to hold ``rows`` × ``columns``."""
        held_rows, held_columns = self._totals.shape
        if rows <= held_rows and columns <= held_columns:
            return
        rows = held_rows if rows <= held_rows else max(rows, 2 * held_rows, 16)
        columns = (
            held_columns if columns <= held_columns else max(columns, 2 * held_columns, 4)
        )
        counts = np.zeros((rows, columns, self._bin_count))
        counts[:held_rows, :held_columns] = self._counts
        totals = np.zeros((rows, columns))
        totals[:held_rows, :held_columns] = self._totals
        seen = np.full((rows, columns), _UNSEEN, dtype=np.int64)
        seen[:held_rows, :held_columns] = self._seen
        self._counts, self._totals, self._seen = counts, totals, seen
        self._t0_us = np.resize(self._t0_us, rows)
        self._last_seen_us = np.resize(self._last_seen_us, rows)

    def _new_rows(self, devices: list[MacAddress]) -> list[int]:
        """Zeroed rows for newly kept devices (freed rows first), in
        order; the caller sets their ``t0_us``/``last_seen_us``."""
        reused = min(len(devices), len(self._free_rows))
        rows = [self._free_rows.pop() for _ in range(reused)]
        start = self._row_count
        self._row_count += len(devices) - reused
        rows.extend(range(start, self._row_count))
        self._reserve(self._row_count, len(self._ftype_keys))
        self._rows.update(zip(devices, rows))
        return rows

    def _column(self, ftype_key: str) -> int:
        """The frame type's column, added on first use."""
        column = self._columns.get(ftype_key)
        if column is None:
            column = len(self._ftype_keys)
            self._columns[ftype_key] = column
            self._ftype_keys.append(ftype_key)
            self._reserve(self._row_count, column + 1)
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
        :meth:`~repro.core.parameters.ObservationStream.push_table`
        pass, binned with ``index_many`` and folded into the dense
        counters with one flat ``np.bincount``.  The channel clock
        carries across calls, so a window spanning many chunks can be
        fed chunk by chunk, and the resulting state (counts, totals,
        ``t0_us``/``last_seen_us``, device and frame-type order,
        channel clock) does not depend on where the chunks were cut.
        """
        if hi is None:
            hi = len(table)
        count = hi - lo
        if count <= 0:
            return 0
        pushed = self._stream.push_table(table, lo, hi)
        self.frames_seen += count
        bin_idx = self.bins.index_many(pushed.values)
        keep = bin_idx >= 0
        kept = int(np.count_nonzero(keep))
        if kept == 0:
            return 0
        self.observations_kept += kept
        sender_k = pushed.sender_idx[keep]
        ftype_k = pushed.ftype_idx[keep]
        bin_k = bin_idx[keep]
        stamps = table.timestamp_us[pushed.positions[keep]]
        self._fold(table, sender_k, ftype_k, bin_k, stamps, kept)
        return kept

    def _fold(
        self,
        table: "FrameTable",
        sender_k: np.ndarray,
        ftype_k: np.ndarray,
        bin_k: np.ndarray,
        stamps: np.ndarray,
        kept: int,
    ) -> None:
        """Batch fold: one bincount over (row, column, bin).

        Increments are unit weights, so batch-summed integer counts
        added to the held float counters reproduce one-at-a-time
        additions exactly (integers are exact in float64).  New devices
        take rows, and new (device, frame type) pairs take first-seen
        numbers, in first-kept-observation order, found with the
        reversed-scatter trick (duplicate fancy-assignment indices keep
        the last write) — so the orders do not depend on the chunking.
        """
        senders = table.senders
        order = np.arange(kept, dtype=np.int64)
        first = np.full(len(senders), kept, dtype=np.int64)
        first[sender_k[::-1]] = order[::-1]
        last = np.zeros(len(senders), dtype=np.int64)
        last[sender_k] = order
        codes = np.flatnonzero(first < kept)
        codes = codes[np.argsort(first[codes])]
        devices = [senders[code] for code in codes.tolist()]
        row_get = self._rows.get
        rows = np.array([row_get(device, -1) for device in devices], dtype=np.int64)
        fresh = np.flatnonzero(rows < 0)
        if fresh.size:
            rows[fresh] = self._new_rows([devices[i] for i in fresh.tolist()])
            self._t0_us[rows[fresh]] = stamps[first[codes[fresh]]]
        self._last_seen_us[rows] = stamps[last[codes]]
        row_of = np.zeros(len(senders), dtype=np.int64)
        row_of[codes] = rows
        fcodes = np.flatnonzero(np.bincount(ftype_k, minlength=len(table.ftype_keys)))
        column_of = np.zeros(len(table.ftype_keys), dtype=np.int64)
        column_of[fcodes] = [self._column(table.ftype_keys[f]) for f in fcodes.tolist()]
        n_columns = self._totals.shape[1]
        n_pairs = self._row_count * n_columns
        cells = n_pairs * self._bin_count
        pair = row_of[sender_k] * n_columns + column_of[ftype_k]
        self._counts.reshape(-1)[:cells] += np.bincount(
            pair * self._bin_count + bin_k, minlength=cells
        )
        self._totals.reshape(-1)[:n_pairs] += np.bincount(pair, minlength=n_pairs)
        first_pair = np.full(n_pairs, kept, dtype=np.int64)
        first_pair[pair[::-1]] = order[::-1]
        seen = self._seen.reshape(-1)
        fresh = np.flatnonzero((first_pair < kept) & (seen[:n_pairs] == _UNSEEN))
        if fresh.size:
            fresh = fresh[np.argsort(first_pair[fresh])]
            seen[fresh] = np.arange(self._sequence, self._sequence + fresh.size)
            self._sequence += int(fresh.size)

    # -- read-out ------------------------------------------------------
    def signature(self, device: MacAddress) -> Signature | None:
        """The device's current signature (``None`` below the gate)."""
        row = self._rows.get(device)
        if row is None:
            return None
        return self._block([device], np.array([row])).get(device)

    def signatures(self) -> SignatureBlock:
        """Every resident device clearing the gate, as one block.

        The block holds a copy of the gated devices' counters, taken in
        one pass; a :class:`Signature` is built only for a device that
        is looked up in it.
        """
        rows = np.fromiter(self._rows.values(), dtype=np.int64, count=len(self._rows))
        return self._block(list(self._rows), rows)

    def _block(self, devices: list[MacAddress], rows: np.ndarray) -> SignatureBlock:
        """The block of those ``devices`` (held in ``rows``) that clear
        the gate, with frame types in first-seen order."""
        columns = len(self._ftype_keys)
        totals = self._totals[rows, :columns]
        # Masses are integers, exact in any summation order, so one
        # row reduction gates every device at once.
        gated = np.flatnonzero(totals.sum(axis=1) >= self.min_observations)
        rows = rows[gated]
        return SignatureBlock(
            [devices[i] for i in gated.tolist()],
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
        for device, row in self._rows.items():
            columns = self._columns_of(row)
            keys = [self._ftype_keys[column] for column in columns]
            devices.append(
                {
                    "mac": device.value,
                    "t0_us": float(self._t0_us[row]),
                    "last_seen_us": float(self._last_seen_us[row]),
                    "counts": dict(zip(keys, self._counts[row, columns].tolist())),
                    "totals": dict(zip(keys, self._totals[row, columns].tolist())),
                }
            )
        return {
            "parameter": self.parameter.name,
            "bin_count": self._bin_count,
            "min_observations": self.min_observations,
            # The format's decay key is always null: builders do not
            # decay, and restore_state rejects a snapshot that did.
            "decay_half_life_s": None,
            "frames_seen": self.frames_seen,
            "observations_kept": self.observations_kept,
            "stream": self._stream.export_state(),
            "devices": devices,
        }

    def restore_state(self, payload: dict) -> None:
        """Resume from :meth:`export_state` output.

        The builder must have been constructed with the same parameter,
        binning and gating configuration the snapshot was taken under —
        a mismatch raises ``ValueError`` instead of silently mixing
        incompatible histograms.
        """
        for key, mine in (
            ("parameter", self.parameter.name),
            ("bin_count", self._bin_count),
            ("min_observations", self.min_observations),
            ("decay_half_life_s", None),
        ):
            theirs = payload.get(key)
            if theirs != mine:
                raise ValueError(
                    f"checkpoint {key} mismatch: snapshot has {theirs!r}, "
                    f"this builder has {mine!r}"
                )
        self._stream.restore_state(payload.get("stream", {}))
        self.frames_seen = int(payload["frames_seen"])
        self.observations_kept = int(payload["observations_kept"])
        self._clear()
        for entry in payload["devices"]:
            (row,) = self._new_rows([MacAddress(int(entry["mac"]))])
            self._t0_us[row] = float(entry["t0_us"])
            self._last_seen_us[row] = float(entry["last_seen_us"])
            totals = entry["totals"]
            for ftype_key, counts in entry["counts"].items():
                column = self._column(ftype_key)
                self._seen[row, column] = self._sequence
                self._sequence += 1
                self._counts[row, column] = counts
                self._totals[row, column] = float(totals[ftype_key])

    # -- residency -----------------------------------------------------
    @property
    def resident_count(self) -> int:
        """Number of devices currently holding accumulators."""
        return len(self._rows)

    def devices(self) -> Iterator[MacAddress]:
        """Resident devices, in first-observation order."""
        return iter(self._rows)

    def last_seen_us(self, device: MacAddress) -> float | None:
        """When the device last contributed a kept observation."""
        row = self._rows.get(device)
        return None if row is None else float(self._last_seen_us[row])

    def evict(self, device: MacAddress) -> bool:
        """Drop one device's accumulators; ``False`` if absent.

        The freed row is zeroed and handed to the next new device.
        """
        row = self._rows.pop(device, None)
        if row is None:
            return False
        self._counts[row] = 0.0
        self._totals[row] = 0.0
        self._seen[row] = _UNSEEN
        self._free_rows.append(row)
        return True

    def evict_idle(self, now_us: float, idle_timeout_s: float) -> list[MacAddress]:
        """Drop devices with no kept observation for ``idle_timeout_s``.

        Returns the evicted devices.  This bounds the resident set on
        open-ended streams at the cost of forgetting devices that
        return after a long silence — exactness is traded for memory,
        so it is opt-in (see ``WindowConfig.idle_timeout_s``).
        """
        horizon = now_us - idle_timeout_s * 1e6
        victims = [
            device
            for device, row in self._rows.items()
            if self._last_seen_us[row] < horizon
        ]
        for device in victims:
            self.evict(device)
        return victims
