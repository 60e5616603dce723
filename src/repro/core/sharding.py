"""Horizontal sharding of the reference database (DESIGN.md §5).

The paper's monitor fingerprints every device the sniffer has ever
seen; at production scale that database no longer fits one packed
matrix in one interpreter.  :class:`ShardedReferenceDatabase` splits
the device population across ``K`` ordinary
:class:`~repro.core.database.ReferenceDatabase` shards by
**consistent-hashing the MAC address** onto a vnode ring — the mapping
is a pure function of the address, stable across processes and
restarts, and growing the ring from ``K`` to ``K+1`` shards relocates
only ``≈1/(K+1)`` of the devices.

Matching fans Algorithm 1 out per shard: every shard is a complete,
self-contained reference database, so each one is matched with the
unmodified single-shard engine
(:func:`~repro.core.matcher.batch_match_signatures`) and the per-shard
similarity columns are stitched back into global insertion order.  The
per-shard numbers are therefore *identical* to running the engine on
that shard alone; cross-partition sums agree with the unsharded engine
to BLAS reduction-order (≈1 ULP — see DESIGN.md §5 for why bitwise
equality across different matrix partitions is not attainable).

The fan-out is an in-process loop over the non-empty shards.  Top-k
queries merge per-shard top-k lists — exact, because a global top-k
can only contain devices that are top-k within their own shard.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Iterator, Sequence

import numpy as np

from repro.dot11.mac import MacAddress
from repro.core.database import MergeReport, ReferenceDatabase, merge_databases
from repro.core.matcher import batch_match_signatures
from repro.core.signature import Signature
from repro.core.similarity import SimilarityMeasure, cosine_similarity

#: Virtual nodes per shard on the consistent-hash ring.  More vnodes
#: flatten the device distribution across shards at the cost of a
#: larger (bisected, so cheap) ring.
DEFAULT_VNODES = 64


def _hash64(data: bytes) -> int:
    """Stable 64-bit hash (blake2b) — independent of PYTHONHASHSEED."""
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


class ConsistentHashRing:
    """Maps MAC addresses onto shard indices via a vnode ring.

    Each shard owns :data:`DEFAULT_VNODES` points on a 64-bit ring; a
    device lands on the first point at or clockwise-after the hash of
    its address.  The assignment is deterministic across processes
    (blake2b, not ``hash()``) and *consistent*: re-ringing ``K`` →
    ``K+1`` shards only moves the devices whose arc the new shard's
    vnodes capture, ≈``1/(K+1)`` of the population.
    """

    def __init__(self, shard_count: int, vnodes: int = DEFAULT_VNODES) -> None:
        if shard_count < 1:
            raise ValueError(f"shard count must be >= 1: {shard_count}")
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1: {vnodes}")
        self.shard_count = shard_count
        self.vnodes = vnodes
        points = sorted(
            (_hash64(f"shard:{shard}:vnode:{vnode}".encode("ascii")), shard)
            for shard in range(shard_count)
            for vnode in range(vnodes)
        )
        self._hashes = [point for point, _ in points]
        self._owners = [owner for _, owner in points]

    def shard_of(self, device: MacAddress) -> int:
        """The shard index owning one MAC address."""
        position = bisect.bisect_right(self._hashes, _hash64(device.to_bytes()))
        return self._owners[position % len(self._owners)]


def _local_top_k(scores: np.ndarray, k: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-row top-k of one shard's ``(M, N_shard)`` score matrix.

    Returns ``(columns, values)`` per candidate, ordered by descending
    score with ties broken towards the lowest column — the insertion
    tie-break, applied shard-locally (shard-local column order is
    global insertion order restricted to the shard).
    """
    out: list[tuple[np.ndarray, np.ndarray]] = []
    for row in scores:
        if row.shape[0] <= k:
            order = np.argsort(-row, kind="stable")
        else:
            # argpartition bounds the sort to the k candidates;
            # sorting the partition first makes the stable score sort
            # break ties towards the lowest column.
            part = np.sort(np.argpartition(-row, k - 1)[:k])
            order = part[np.argsort(-row[part], kind="stable")]
            order = _stable_tie_fixup(row, order, k)
        out.append((order[:k], row[order[:k]]))
    return out


def _stable_tie_fixup(row: np.ndarray, order: np.ndarray, k: int) -> np.ndarray:
    """Re-select ties at the k-th score by earliest insertion order.

    ``argpartition`` picks an arbitrary subset of the columns tied with
    the k-th best score; the documented tie-break is earliest-registered
    (lowest column).  Replace the tied tail with the lowest-index
    columns holding that score.
    """
    boundary = row[order[k - 1]]
    tied = np.flatnonzero(row == boundary)
    if len(tied) <= 1:
        return order
    keep = [i for i in order[:k] if row[i] > boundary]
    return np.asarray(keep + list(tied[: k - len(keep)]), dtype=order.dtype)


class ShardedReferenceDatabase:
    """A reference database consistent-hashed across K shards.

    Drop-in for :class:`~repro.core.database.ReferenceDatabase` in the
    matching APIs: :func:`~repro.core.matcher.match_signature`,
    :func:`~repro.core.matcher.batch_match_signatures` and
    :func:`~repro.core.matcher.best_match` detect the sharded database
    and fan out per shard, so the detection pipeline and all three
    Section VII applications accept one transparently.

    Device order (for score columns and tie-breaks) is **global
    insertion order** — the order devices were first registered,
    regardless of which shard owns them — matching the unsharded
    database's semantics.
    """

    #: Duck-typed dispatch marker for :mod:`repro.core.matcher`.
    is_sharded = True

    def __init__(
        self, shard_count: int = 4, vnodes: int = DEFAULT_VNODES
    ) -> None:
        self.ring = ConsistentHashRing(shard_count, vnodes)
        self._shards = tuple(ReferenceDatabase() for _ in range(shard_count))
        #: Global insertion-ordered device registry (ordered-set dict).
        self._registry: dict[MacAddress, None] = {}

    @classmethod
    def from_database(
        cls,
        database: ReferenceDatabase,
        shard_count: int = 4,
        vnodes: int = DEFAULT_VNODES,
    ) -> "ShardedReferenceDatabase":
        """Reshard an ordinary database (insertion order preserved)."""
        sharded = cls(shard_count, vnodes)
        for device, signature in database.items():
            sharded.add(device, signature)
        return sharded

    # -- membership ----------------------------------------------------
    @property
    def shard_count(self) -> int:
        """Number of shards."""
        return len(self._shards)

    @property
    def shards(self) -> tuple[ReferenceDatabase, ...]:
        """The per-shard databases (index = ring shard index)."""
        return self._shards

    def shard_index(self, device: MacAddress) -> int:
        """Which shard owns one device (pure function of the MAC)."""
        return self.ring.shard_of(device)

    def add(self, device: MacAddress, signature: Signature) -> None:
        """Register (or replace) one device on its owning shard."""
        self._shards[self.ring.shard_of(device)].add(device, signature)
        self._registry.setdefault(device, None)

    def remove(self, device: MacAddress) -> bool:
        """Forget one device; ``False`` (no-op) if unknown."""
        removed = self._shards[self.ring.shard_of(device)].remove(device)
        if removed:
            del self._registry[device]
        return removed

    def get(self, device: MacAddress) -> Signature | None:
        """Signature of one device, if known."""
        return self._shards[self.ring.shard_of(device)].get(device)

    def merge(
        self,
        source: "ReferenceDatabase | ShardedReferenceDatabase",
        on_conflict: str = "replace",
    ) -> MergeReport:
        """Fold another (sharded or not) database into this one.

        Same conflict policy as
        :meth:`~repro.core.database.ReferenceDatabase.merge` — both
        delegate to :func:`~repro.core.database.merge_databases`.
        """
        return merge_databases(self, source, on_conflict)

    def __contains__(self, device: MacAddress) -> bool:
        return device in self._registry

    def __len__(self) -> int:
        return len(self._registry)

    def __iter__(self) -> Iterator[MacAddress]:
        return iter(list(self._registry))

    @property
    def devices(self) -> list[MacAddress]:
        """All devices, in global insertion order (a snapshot)."""
        return list(self._registry)

    def items(self) -> list[tuple[MacAddress, Signature]]:
        """(device, signature) pairs in global insertion order."""
        return [(device, self.get(device)) for device in self._registry]

    def shard_sizes(self) -> list[int]:
        """Device count per shard (load-balance diagnostics)."""
        return [len(shard) for shard in self._shards]

    # -- matching ------------------------------------------------------
    def batch_match(
        self,
        candidates: Sequence[Signature],
        measure: SimilarityMeasure = cosine_similarity,
    ) -> np.ndarray:
        """Algorithm 1 fanned out per shard, merged into global order.

        Returns the ``(len(candidates), len(self))`` similarity matrix
        with columns in :attr:`devices` order.  Every column holds
        exactly the scores the single-shard engine computes for that
        device's shard.
        """
        devices = self.devices
        out = np.zeros((len(candidates), len(devices)), dtype=np.float64)
        if not candidates or not devices:
            return out
        column_of = {device: column for column, device in enumerate(devices)}
        for shard in self._shards:
            if len(shard):
                columns = [column_of[device] for device in shard.devices]
                out[:, columns] = batch_match_signatures(candidates, shard, measure)
        return out

    def top_k(
        self,
        candidates: Sequence[Signature],
        k: int,
        measure: SimilarityMeasure = cosine_similarity,
    ) -> list[list[tuple[MacAddress, float]]]:
        """The k best references per candidate, merged across shards.

        Each shard contributes only its local top-k (a global top-k
        device is necessarily top-k within its own shard, so the merge
        loses nothing — DESIGN.md §5); per-candidate lists are ordered
        by descending score with ties broken towards earlier global
        insertion, the same tie-break
        :func:`~repro.core.matcher.best_match` uses.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1: {k}")
        devices = self.devices
        if not devices or not candidates:
            return [[] for _ in candidates]
        column_of = {device: column for column, device in enumerate(devices)}
        # Per non-empty shard: its columns in global order and each
        # candidate's local top-k (columns, scores).
        per_shard = [
            (
                [column_of[device] for device in shard.devices],
                _local_top_k(batch_match_signatures(candidates, shard, measure), k),
            )
            for shard in self._shards
            if len(shard)
        ]
        merged: list[list[tuple[MacAddress, float]]] = []
        for candidate_row in range(len(candidates)):
            entries: list[tuple[int, float]] = []
            for to_global, local_top in per_shard:
                local_columns, local_scores = local_top[candidate_row]
                entries.extend(
                    (to_global[int(local)], float(score))
                    for local, score in zip(local_columns, local_scores)
                )
            entries.sort(key=lambda entry: (-entry[1], entry[0]))
            merged.append(
                [(devices[column], score) for column, score in entries[:k]]
            )
        return merged
