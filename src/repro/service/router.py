"""Consistent-hash routing of columnar chunks onto ingest shards.

:class:`ShardRouter` partitions each incoming
:class:`~repro.traces.table.FrameTable` chunk across the ``K`` shard
engines of one sensor pipeline.  The owner of a device is given by
:class:`ConsistentHashRing`, a pure function of its MAC address.

Routing semantics (DESIGN.md §9):

* attributable rows go to exactly the shard that owns their sender's
  MAC (stable across sensors, processes and restarts);
* unattributable rows (ACK/CTS, ``sender_idx == -1``) are **broadcast
  to every shard**: they never produce observations, but they advance
  the channel clock of the time-derived parameters, and every shard
  engine keeps its own clock.

Each shard's rows keep their relative order (boolean-mask selection
preserves it), so every shard engine sees a valid non-decreasing
capture stream.  The per-sender shard lookup is vectorized: the
ring is consulted once per *interned sender* (cached across chunks),
then applied to the attributable rows of ``sender_idx`` in one take.
"""

from __future__ import annotations

import bisect
import hashlib

import numpy as np

from repro.dot11.mac import MacAddress
from repro.traces.table import FrameTable

#: Virtual nodes per shard on the consistent-hash ring.  More vnodes
#: flatten the device distribution across shards at the cost of a
#: larger (bisected, so cheap) ring.  Part of the sensor checkpoint
#: fingerprint: changing it remaps devices.
VNODES = 64


def _hash64(data: bytes) -> int:
    """Stable 64-bit hash (blake2b) — independent of PYTHONHASHSEED."""
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


class ConsistentHashRing:
    """Maps MAC addresses onto shard indices via a vnode ring.

    Each shard owns :data:`VNODES` points on a 64-bit ring; a device
    lands on the first point at or clockwise-after the hash of its
    address.  The assignment is deterministic across processes
    (blake2b, not ``hash()``) and *consistent*: re-ringing ``K`` →
    ``K+1`` shards only moves the devices whose arc the new shard's
    vnodes capture, ≈``1/(K+1)`` of the population.
    """

    def __init__(self, shard_count: int) -> None:
        if shard_count < 1:
            raise ValueError(f"shard count must be >= 1: {shard_count}")
        self.shard_count = shard_count
        points = sorted(
            (_hash64(f"shard:{shard}:vnode:{vnode}".encode("ascii")), shard)
            for shard in range(shard_count)
            for vnode in range(VNODES)
        )
        self._hashes = [point for point, _ in points]
        self._owners = [owner for _, owner in points]

    def shard_of(self, device: MacAddress) -> int:
        """The shard index owning one MAC address."""
        position = bisect.bisect_right(self._hashes, _hash64(device.to_bytes()))
        return self._owners[position % len(self._owners)]


class ShardRouter:
    """Partitions columnar chunks across shard engines via the ring."""

    def __init__(self, shard_count: int) -> None:
        self.ring = ConsistentHashRing(shard_count)
        self.shard_count = shard_count
        self._owner_of: dict[MacAddress, int] = {}

    def shard_of(self, device: MacAddress) -> int:
        """The shard owning one device (memoised ring lookup)."""
        owner = self._owner_of.get(device)
        if owner is None:
            owner = self.ring.shard_of(device)
            self._owner_of[device] = owner
        return owner

    def partition(self, table: FrameTable) -> list[FrameTable]:
        """Split one chunk into K per-shard tables (empty ones included).

        Index ``k`` of the result holds shard ``k``'s rows: the rows
        whose sender hashes to ``k`` plus every unattributable row, in
        original order.  With ``K == 1`` the chunk is passed through
        untouched (no copy).
        """
        if self.shard_count == 1:
            return [table]
        owners = np.fromiter(
            (self.shard_of(sender) for sender in table.senders),
            dtype=np.int64,
            count=len(table.senders),
        )
        sender_idx = table.sender_idx
        sentinel = sender_idx == -1
        # Only attributable rows index ``owners``: a chunk of nothing
        # but ACK/CTS rows interns no sender at all.  Sentinel rows
        # keep -1, and the mask ORs them into every shard.
        row_shard = np.full(len(sender_idx), -1, dtype=np.int64)
        row_shard[~sentinel] = owners[sender_idx[~sentinel]]
        return [
            table.select((row_shard == shard) | sentinel)
            for shard in range(self.shard_count)
        ]

