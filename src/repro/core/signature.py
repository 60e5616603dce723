"""Device signatures (Definition 1) and their construction.

``Sig(s) = {(weight^ftype(s), hist^ftype(s)) | ∀ftype}`` — one
percentage-frequency histogram per frame type, weighted by the fraction
of the device's observations that frame type contributes:

``weight^ftype(s) = |P^ftype(s)| / Σ_ftype |P^ftype(s)|``

The builder enforces the implementation's minimum-observation rule
(Section V-C): a signature is only emitted for devices with at least
``min_observations`` attributed observations (the paper uses 50).

:class:`SignatureBlock` is the one read-out of bin counts into
Definition 1, for many devices at once; the batch builder here and the
streaming builder (:mod:`repro.streaming.builder`) both read out
through it.
"""

from __future__ import annotations

from collections.abc import ItemsView, Iterator, Mapping
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.dot11.mac import MacAddress
from repro.core.histogram import BinSpec
from repro.core.parameters import NetworkParameter
from repro.traces.table import FrameTable

#: The paper's minimum number of observations per signature.
DEFAULT_MIN_OBSERVATIONS = 50


@dataclass
class Signature:
    """Definition 1: weighted per-frame-type histograms of one device."""

    histograms: dict[str, np.ndarray]
    weights: dict[str, float]
    observation_counts: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if set(self.histograms) != set(self.weights):
            raise ValueError("histograms and weights must cover the same frame types")
        for ftype, weight in self.weights.items():
            if weight < 0:
                raise ValueError(f"negative weight for {ftype!r}: {weight}")

    @property
    def total_observations(self) -> int:
        """Total attributed observations across all frame types."""
        return sum(self.observation_counts.values())

    @property
    def frame_types(self) -> set[str]:
        """Frame types this signature contains."""
        return set(self.histograms)

    def histogram(self, ftype_key: str) -> np.ndarray | None:
        """Percentage-frequency histogram of one frame type."""
        return self.histograms.get(ftype_key)

    def weight(self, ftype_key: str) -> float:
        """Weight of one frame type (0 if absent)."""
        return self.weights.get(ftype_key, 0.0)


class SignatureBlock(Mapping[MacAddress, Signature]):
    """Definition 1 for many devices at once: the one read-out of bin counts.

    Row ``rows[i]`` (default ``i``) of ``counts`` (frame types × bins),
    ``totals`` (their sums ``|P^f|``) and ``first_seen`` (a key per frame
    type, smaller = seen first) describes ``devices[i]``, so a builder
    hands over its arrays without gathering them; column ``f`` is the
    frame type ``frame_types[f]``.  Frame type ``f``'s histogram is
    ``counts[row, f] / |P^f|``, its weight ``|P^f| / Σ|P|`` and its
    observation count ``|P^f|``; integer (batch) and float (streaming)
    counts of the same integers give the same floats.

    The block is a read-only device → :class:`Signature` mapping that
    keeps the counts as arrays: a signature is read out only when a
    device is looked up (:meth:`items` reads every device out in one
    pass), with its frame types in ``first_seen`` order and frame types
    without observations left out, and it owns its histograms.  The
    matcher reads :attr:`histograms` instead and builds no signature.
    """

    __slots__ = (
        "devices", "frame_types", "counts", "totals", "first_seen", "rows", "_index"
    )

    def __init__(
        self,
        devices: Sequence[MacAddress],
        frame_types: Sequence[str],
        counts: np.ndarray,
        totals: np.ndarray,
        first_seen: np.ndarray,
        rows: np.ndarray | None = None,
    ) -> None:
        self.devices = tuple(devices)
        self.frame_types = tuple(frame_types)
        self.counts = counts
        self.totals = totals
        self.first_seen = first_seen
        self.rows = np.arange(len(self.devices)) if rows is None else rows
        self._index = {device: i for i, device in enumerate(self.devices)}

    @property
    def histograms(self) -> dict[str, np.ndarray]:
        """Frame type → ``(len(devices), bins)`` frequency rows, a zero
        row where a device lacks the type, for the types some device
        shows: the same divisions as a read-out, made for the whole
        block at once, so each frame type's rows are a view."""
        totals = self.totals[self.rows]
        shown = totals > 0
        frequencies = self.counts[self.rows] / np.where(shown, totals, 1)[..., None]
        return {
            self.frame_types[f]: frequencies[:, f]
            for f in np.flatnonzero(shown.any(axis=0)).tolist()
        }

    def __getitem__(self, device: MacAddress) -> Signature:
        i = self._index[device]
        (signature,) = self._read_out(self.rows[i : i + 1])
        return signature

    def items(self) -> ItemsView[MacAddress, Signature]:
        """Every device with its signature, all read out in one pass."""
        return dict(zip(self.devices, self._read_out(self.rows))).items()

    def _read_out(self, rows: np.ndarray) -> list[Signature]:
        """The signatures held in ``rows``, with one argsort for all."""
        totals = self.totals[rows]
        shown = totals > 0
        # Masses are integers, exact in any summation order.
        mass = totals.sum(axis=1, keepdims=True)
        key = np.where(shown, self.first_seen[rows], np.iinfo(np.int64).max)
        keys = self.frame_types
        signatures = []
        for row, order, count, observations, weights in zip(
            rows.tolist(),
            np.argsort(key, axis=1).tolist(),
            shown.sum(axis=1).tolist(),
            totals.tolist(),
            (totals / np.where(mass > 0, mass, 1)).tolist(),
        ):
            counts = self.counts[row]
            columns = order[:count]
            signatures.append(
                Signature(
                    {keys[f]: counts[f] / observations[f] for f in columns},
                    {keys[f]: weights[f] for f in columns},
                    {keys[f]: int(observations[f]) for f in columns},
                )
            )
        return signatures

    def __contains__(self, device: object) -> bool:
        return device in self._index

    def __iter__(self) -> Iterator[MacAddress]:
        return iter(self.devices)

    def __len__(self) -> int:
        return len(self.devices)


class SignatureBuilder:
    """Builds signatures for every device visible in a capture.

    One builder is bound to a network parameter and a bin spec; its
    :meth:`build_table` can be called on any columnar table (a full
    training trace or a 5-minute candidate window).
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

    def build_table(self, table: FrameTable) -> dict[MacAddress, Signature]:
        """Signatures of every device in a columnar :class:`FrameTable`.

        Extracts observations vectorized, bins them in one
        ``index_many`` pass and scatters them into the per-(device,
        frame type) count matrix with a single flat ``np.bincount``.
        Devices with fewer than ``min_observations`` kept observations
        are omitted, mirroring the paper's tool.
        """
        observed = self.parameter.observe_table(table)
        bin_idx = self.bins.index_many(observed.values)
        return self.build_binned(
            observed.sender_idx,
            observed.ftype_idx,
            bin_idx,
            table.senders,
            table.ftype_keys,
        )

    def build_binned(
        self,
        sender_idx: np.ndarray,
        ftype_idx: np.ndarray,
        bin_idx: np.ndarray,
        senders: tuple[MacAddress, ...],
        ftype_keys: tuple[str, ...],
    ) -> dict[MacAddress, Signature]:
        """Assemble signatures from pre-binned observation codes.

        ``bin_idx`` uses the vectorized binning convention (``-1`` =
        discarded).  The detection fast path bins a whole validation
        trace once and calls this per window slice.  Devices and frame
        types are emitted in first-observation order, counting
        observations the bins discard, so every downstream
        insertion-order-dependent structure (reference databases,
        candidate lists) follows the capture.
        """
        if sender_idx.size == 0:
            return {}
        n_ftypes = len(ftype_keys)
        n_bins = self.bins.bin_count
        # Compress to the senders actually present in this batch: a
        # window slice of a large trace must scale with its *active*
        # devices, not the whole capture's intern table (the count
        # matrix below is per-sender × ftypes × bins).
        active = np.flatnonzero(np.bincount(sender_idx, minlength=len(senders)))
        local_code = np.zeros(len(senders), dtype=np.int64)
        local_code[active] = np.arange(active.size)
        # One cell per (sender, ftype) pair; bucket order (pre-discard)
        # via the first occurrence of each pair.
        pair = local_code[sender_idx] * n_ftypes + ftype_idx
        kept = bin_idx >= 0
        flat = pair[kept] * n_bins + bin_idx[kept]
        counts = np.bincount(
            flat, minlength=active.size * n_ftypes * n_bins
        ).reshape(active.size, n_ftypes, n_bins)
        ftype_totals = counts.sum(axis=2)
        sender_totals = ftype_totals.sum(axis=1)

        # First occurrence per cell in one reversed scatter: duplicate
        # fancy-assignment indices keep the *last* write, so reversing
        # both sides leaves each cell with its earliest position.
        first_seen = np.full(active.size * n_ftypes, pair.size, dtype=np.int64)
        first_seen[pair[::-1]] = np.arange(pair.size - 1, -1, -1, dtype=np.int64)
        first_seen = first_seen.reshape(active.size, n_ftypes)
        sender_first = first_seen.min(axis=1)

        eligible = np.flatnonzero(sender_totals >= self.min_observations)
        eligible = eligible[np.argsort(sender_first[eligible])]
        block = SignatureBlock(
            [senders[code] for code in active[eligible].tolist()],
            ftype_keys,
            counts,
            ftype_totals,
            first_seen,
            rows=eligible,
        )
        return dict(block.items())
