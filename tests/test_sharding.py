"""Tests for the consistent-hash ring that assigns devices to ingest shards.

The ring (:class:`repro.service.router.ConsistentHashRing`) decides
which shard engine of a sensor pipeline owns a device.  The mapping is
part of every sensor checkpoint, so it is pinned exactly.
"""

from __future__ import annotations

import pytest

from repro.core.parameters import InterArrivalTime
from repro.dot11.mac import vendor_mac
from repro.service import ServiceConfig
from repro.service.router import ConsistentHashRing


class TestConsistentHashRing:
    def test_deterministic_across_instances(self):
        devices = [vendor_mac("00:13:e8", i + 1) for i in range(200)]
        a, b = ConsistentHashRing(4), ConsistentHashRing(4)
        assert [a.shard_of(d) for d in devices] == [b.shard_of(d) for d in devices]

    def test_single_shard_maps_everything_to_zero(self):
        ring = ConsistentHashRing(1)
        assert {ring.shard_of(vendor_mac("00:13:e8", i + 1)) for i in range(50)} == {0}

    def test_growth_moves_about_one_kth(self):
        devices = [vendor_mac("00:13:e8", i + 1) for i in range(2000)]
        before, after = ConsistentHashRing(4), ConsistentHashRing(5)
        moved = sum(before.shard_of(d) != after.shard_of(d) for d in devices)
        # Consistency: only ~1/5 of devices relocate (vnode variance
        # allowed for), nothing like the 4/5 a modular rehash causes.
        assert moved / len(devices) < 0.40

    def test_reasonable_balance(self):
        devices = [vendor_mac("00:13:e8", i + 1) for i in range(4000)]
        ring = ConsistentHashRing(4)
        counts = [0, 0, 0, 0]
        for device in devices:
            counts[ring.shard_of(device)] += 1
        assert min(counts) > 0.4 * (len(devices) / 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            ConsistentHashRing(0)

    def test_device_to_shard_mapping_is_pinned(self):
        """Sensor checkpoints hold per-shard state: the map must not move."""
        ring = ConsistentHashRing(4)
        assert [ring.shard_of(vendor_mac("00:13:e8", i)) for i in range(1, 17)] == [
            1, 2, 1, 2, 0, 0, 3, 0, 3, 0, 0, 3, 3, 2, 3, 3,
        ]

    def test_checkpoint_fingerprint_keeps_vnode_count(self):
        """Checkpoints written when the vnode count was configurable
        carry ``"vnodes": 64`` and must still restore."""
        config = ServiceConfig(parameter=InterArrivalTime())
        assert config.fingerprint()["vnodes"] == 64
