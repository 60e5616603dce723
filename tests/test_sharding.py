"""Tests for the sharded reference database.

Exactness contract (DESIGN.md §5): every shard is matched by the
unmodified single-shard engine, so a shard's score columns are *bitwise
identical* to running that engine on a database holding exactly the
shard's devices; K=1 is bitwise identical to the unsharded database;
K>1 whole-matrix comparisons against the unsharded engine agree to
BLAS reduction-order (≤ a few ULP, asserted at atol 1e-12).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dot11.mac import vendor_mac
from repro.core.database import ReferenceDatabase
from repro.core.matcher import batch_match_signatures, best_match, match_signature
from repro.core.sharding import ConsistentHashRing, ShardedReferenceDatabase
from repro.core.signature import Signature
from repro.core.similarity import intersection_similarity
from tests.test_batch_matching import random_database, random_signature


def sharded_copy(database: ReferenceDatabase, k: int) -> ShardedReferenceDatabase:
    return ShardedReferenceDatabase.from_database(database, shard_count=k)


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
        with pytest.raises(ValueError):
            ConsistentHashRing(2, vnodes=0)


class TestMembership:
    def test_mirrors_reference_database_api(self):
        rng = np.random.default_rng(21)
        database = random_database(rng, devices=40)
        sharded = sharded_copy(database, 4)
        assert len(sharded) == len(database)
        assert sharded.devices == database.devices  # global insertion order
        assert list(sharded) == database.devices
        for device, signature in database.items():
            assert device in sharded
            assert sharded.get(device) is signature
        assert sum(sharded.shard_sizes()) == len(database)
        assert [d for d, _ in sharded.items()] == database.devices

    def test_add_remove_replace(self):
        rng = np.random.default_rng(22)
        sharded = ShardedReferenceDatabase(shard_count=3)
        a = vendor_mac("00:13:e8", 1)
        b = vendor_mac("00:18:f8", 2)
        sharded.add(a, random_signature(rng))
        sharded.add(b, random_signature(rng))
        assert sharded.devices == [a, b]
        replacement = random_signature(rng)
        sharded.add(a, replacement)  # replace keeps insertion position
        assert sharded.devices == [a, b]
        assert sharded.get(a) is replacement
        assert sharded.remove(a) is True
        assert sharded.remove(a) is False
        assert a not in sharded and sharded.devices == [b]

    def test_device_always_lands_on_its_ring_shard(self):
        rng = np.random.default_rng(23)
        sharded = ShardedReferenceDatabase(shard_count=5)
        for i in range(60):
            device = vendor_mac("00:13:e8", i + 1)
            sharded.add(device, random_signature(rng))
            owner = sharded.shard_index(device)
            assert device in sharded.shards[owner]

    def test_merge_policies(self):
        rng = np.random.default_rng(24)
        database = random_database(rng, devices=10)
        sharded = sharded_copy(database, 4)
        other = ReferenceDatabase()
        conflicting = database.devices[3]
        fresh = vendor_mac("00:18:f8", 99)
        other.add(conflicting, random_signature(rng))
        other.add(fresh, random_signature(rng))
        report = sharded.merge(other)
        assert report.added == [fresh] and report.replaced == [conflicting]
        assert sharded.get(conflicting) is other.get(conflicting)
        with pytest.raises(ValueError):
            sharded.merge(other, on_conflict="error")
        keep = sharded.merge(other, on_conflict="keep")
        assert keep.skipped == [conflicting, fresh] and not keep.added
        with pytest.raises(ValueError):
            sharded.merge(other, on_conflict="bogus")


class TestScoreEquality:
    def test_k1_is_bitwise_identical_to_unsharded(self):
        rng = np.random.default_rng(25)
        database = random_database(rng, devices=60)
        candidates = [random_signature(rng) for _ in range(25)]
        reference = batch_match_signatures(candidates, database)
        sharded = sharded_copy(database, 1)
        assert np.array_equal(sharded.batch_match(candidates), reference)

    def test_each_shard_is_bitwise_identical_to_single_shard_engine(self):
        """A shard's columns equal the engine run on that shard alone."""
        rng = np.random.default_rng(26)
        database = random_database(rng, devices=80)
        candidates = [random_signature(rng) for _ in range(15)]
        sharded = sharded_copy(database, 4)
        merged = sharded.batch_match(candidates)
        column_of = {device: i for i, device in enumerate(sharded.devices)}
        for shard in sharded.shards:
            if not len(shard):
                continue
            alone = ReferenceDatabase()
            for device, signature in shard.items():
                alone.add(device, signature)
            expected = batch_match_signatures(candidates, alone)
            columns = [column_of[device] for device in shard.devices]
            assert np.array_equal(merged[:, columns], expected)

    @pytest.mark.parametrize("k", [1, 4])
    def test_matches_unsharded_engine(self, k):
        rng = np.random.default_rng(27)
        database = random_database(rng, devices=60)
        candidates = [random_signature(rng) for _ in range(25)]
        reference = batch_match_signatures(candidates, database)
        sharded = sharded_copy(database, k)
        np.testing.assert_allclose(
            sharded.batch_match(candidates), reference, rtol=0, atol=1e-12
        )

    def test_non_cosine_measure_fans_out_too(self):
        rng = np.random.default_rng(28)
        database = random_database(rng, devices=20)
        candidates = [random_signature(rng) for _ in range(6)]
        reference = batch_match_signatures(
            candidates, database, intersection_similarity
        )
        sharded = sharded_copy(database, 3)
        np.testing.assert_allclose(
            sharded.batch_match(candidates, intersection_similarity),
            reference,
            rtol=0,
            atol=1e-12,
        )

    def test_matcher_dispatch(self):
        """match_signature / batch / best_match accept a sharded db."""
        rng = np.random.default_rng(29)
        database = random_database(rng, devices=30)
        sharded = sharded_copy(database, 4)
        candidate = random_signature(rng)
        via_matcher = match_signature(candidate, sharded)
        assert list(via_matcher) == sharded.devices
        np.testing.assert_allclose(
            list(via_matcher.values()),
            list(match_signature(candidate, database).values()),
            rtol=0,
            atol=1e-12,
        )
        matrix = batch_match_signatures([candidate], sharded)
        assert matrix.shape == (1, len(database))
        winner, score = best_match(candidate, sharded)
        ref_winner, ref_score = best_match(candidate, database)
        assert winner == ref_winner
        assert score == pytest.approx(ref_score, abs=1e-12)

    def test_empty_database_and_empty_candidates(self):
        sharded = ShardedReferenceDatabase(shard_count=4)
        assert sharded.batch_match([]).shape == (0, 0)
        rng = np.random.default_rng(30)
        assert sharded.batch_match([random_signature(rng)]).shape == (1, 0)
        assert sharded.top_k([random_signature(rng)], 3) == [[]]


class TestTopKMerge:
    def brute_force(self, sharded, candidates, k):
        scores = sharded.batch_match(candidates)
        devices = sharded.devices
        out = []
        for row in scores:
            order = sorted(range(len(row)), key=lambda i: (-row[i], i))[:k]
            out.append([(devices[i], float(row[i])) for i in order])
        return out

    @pytest.mark.parametrize("k", [1, 3, 10, 200])
    def test_equals_global_selection(self, k):
        rng = np.random.default_rng(31)
        database = random_database(rng, devices=50)
        sharded = sharded_copy(database, 4)
        candidates = [random_signature(rng) for _ in range(12)]
        assert sharded.top_k(candidates, k) == self.brute_force(
            sharded, candidates, k
        )

    def test_tie_break_towards_earliest_insertion(self):
        """Duplicate signatures score identically: earliest device wins."""
        rng = np.random.default_rng(32)
        shared = random_signature(rng)
        sharded = ShardedReferenceDatabase(shard_count=4)
        devices = [vendor_mac("00:13:e8", i + 1) for i in range(12)]
        for device in devices:
            sharded.add(device, shared)
        [top] = sharded.top_k([shared], 5)
        assert [device for device, _ in top] == devices[:5]

    def test_k_must_be_positive(self):
        sharded = ShardedReferenceDatabase(shard_count=2)
        with pytest.raises(ValueError):
            sharded.top_k([], 0)


class TestApplicationsAcceptShardedDatabase:
    """The Section VII detectors run unchanged on a sharded database."""

    def test_spoof_detector_with_sharded_database(self, small_office_trace):
        from repro.applications.spoof_detector import SpoofDetector, SpoofVerdict

        frames = small_office_trace.frames
        half = len(frames) // 2
        learner = SpoofDetector(min_observations=30)
        allowed = {
            sender for sender in small_office_trace.senders() if sender is not None
        }
        learner.learn(frames[:half], allowed)
        sharded = ShardedReferenceDatabase.from_database(learner.database, 4)
        guarded = SpoofDetector(min_observations=30, database=sharded)
        plain_checks = learner.check_window(frames[half:])
        sharded_checks = guarded.check_window(frames[half:])
        assert [c.device for c in sharded_checks] == [
            c.device for c in plain_checks
        ]
        assert [c.verdict for c in sharded_checks] == [
            c.verdict for c in plain_checks
        ]
        assert any(
            c.verdict is SpoofVerdict.GENUINE for c in sharded_checks
        )

    def test_tracker_with_sharded_database(self, small_office_trace):
        from repro.applications.tracker import DeviceTracker

        frames = small_office_trace.frames
        half = len(frames) // 2
        learner = DeviceTracker(min_observations=30)
        learner.learn(frames[:half])
        sharded = ShardedReferenceDatabase.from_database(learner.database, 3)
        tracker = DeviceTracker(min_observations=30, database=sharded)
        import random

        rng = random.Random(9)
        pseudonym_of: dict = {}
        pseudonymous = []
        for frame in frames[half:]:
            sender = frame.sender
            if sender is None or not frame.frame.subtype.has_transmitter_address:
                pseudonymous.append(frame)
                continue
            if sender not in pseudonym_of:
                pseudonym_of[sender] = sender.randomized(rng)
            pseudonymous.append(frame.with_sender(pseudonym_of[sender]))
        links = tracker.link_signatures(
            tracker.builder.build(pseudonymous), window_index=0
        )
        plain_links = learner.link_signatures(
            learner.builder.build(pseudonymous), window_index=0
        )
        assert links  # the office devices are active enough to link
        assert [link.pseudonym for link in links] == [
            link.pseudonym for link in plain_links
        ]
        assert [link.linked_device for link in links] == [
            link.linked_device for link in plain_links
        ]
