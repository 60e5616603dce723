"""Device signatures (Definition 1) and their construction.

``Sig(s) = {(weight^ftype(s), hist^ftype(s)) | ∀ftype}`` — one
percentage-frequency histogram per frame type, weighted by the fraction
of the device's observations that frame type contributes:

``weight^ftype(s) = |P^ftype(s)| / Σ_ftype |P^ftype(s)|``

The builder enforces the implementation's minimum-observation rule
(Section V-C): a signature is only emitted for devices with at least
``min_observations`` attributed observations (the paper uses 50).
"""

from __future__ import annotations

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

    @classmethod
    def from_counts(
        cls,
        ftype_keys: Sequence[str],
        counts: np.ndarray,
        totals: Sequence[float],
        order: Sequence[int],
    ) -> "Signature":
        """Definition 1 read-out of one device's bin counts.

        ``counts[f]`` holds the bin counts of frame type
        ``ftype_keys[f]`` and ``totals[f]`` their sum ``|P^f|``;
        ``order`` lists the frame types to read out, in the signature's
        dict order.  The histogram is ``counts[f] / |P^f|`` and the
        weight ``|P^f| / Σ|P|``, summed over ``order``; a frame type
        with no observation is left out.  Both builders read out
        through here, each ordering by its own first-seen rule.
        """
        total = sum(totals[f] for f in order)
        histograms: dict[str, np.ndarray] = {}
        weights: dict[str, float] = {}
        observation_counts: dict[str, int] = {}
        for f in order:
            count = totals[f]
            if count > 0:
                key = ftype_keys[f]
                histograms[key] = counts[f] / count
                weights[key] = count / total
                observation_counts[key] = int(count)
        return cls(histograms, weights, observation_counts)


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

        eligible = np.flatnonzero(sender_totals >= self.min_observations).tolist()
        eligible.sort(key=sender_first.__getitem__)
        signatures: dict[MacAddress, Signature] = {}
        for s in eligible:
            present = np.flatnonzero(ftype_totals[s] > 0).tolist()
            present.sort(key=first_seen[s].__getitem__)
            signatures[senders[int(active[s])]] = Signature.from_counts(
                ftype_keys, counts[s], ftype_totals[s].tolist(), present
            )
        return signatures
