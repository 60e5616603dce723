"""Tests for the reference database and its packed view.

After any mutation sequence, frame-type purges and width changes
included, the pack that :meth:`ReferenceDatabase.packed` rebuilds must
equal the row-by-row :func:`tests.oracles.pack` bit for bit, and an
``add`` whose histogram width conflicts with the other devices' must
raise and leave the database unchanged.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dot11.mac import vendor_mac
from repro.core.database import ReferenceDatabase
from repro.core.matcher import batch_match_signatures
from repro.core.signature import Signature
from repro.core.similarity import normalize_rows
from tests.oracles import pack, scalar_match
from tests.test_batch_matching import random_database, random_signature


def assert_pack_equivalent(database: ReferenceDatabase) -> None:
    """The database's pack must equal the oracle's, bit for bit."""
    packed = database.packed()
    if len(database) == 0:
        assert packed is None  # empty databases never pack
        return
    rebuilt = pack(list(database.items()))
    assert packed.devices == rebuilt.devices
    assert packed.frame_types == rebuilt.frame_types
    for ftype in rebuilt.frame_types:
        assert np.array_equal(packed.frequencies[ftype], rebuilt.frequencies[ftype])
        assert np.array_equal(packed.weights[ftype], rebuilt.weights[ftype])
        assert np.array_equal(packed.normalized[ftype], rebuilt.normalized[ftype])


def assert_add_refused(
    database: ReferenceDatabase, device, signature: Signature
) -> str:
    """A width-conflicting ``add`` raises and leaves nothing changed;
    returns the error message."""
    items = database.items()
    packed = database.packed()
    with pytest.raises(ValueError) as error:
        database.add(device, signature)
    assert database.items() == items
    assert database.packed() is packed
    return str(error.value)


def one_type_signature(ftype: str, bins: int) -> Signature:
    histogram = np.zeros(bins)
    histogram[0] = 1.0
    return Signature(histograms={ftype: histogram}, weights={ftype: 1.0})


class TestRemove:
    def test_remove_known_device_returns_true(self):
        rng = np.random.default_rng(10)
        database = random_database(rng, devices=3)
        victim = database.devices[1]
        assert database.remove(victim) is True
        assert victim not in database
        assert len(database) == 2

    def test_remove_unknown_device_is_a_noop(self):
        rng = np.random.default_rng(11)
        database = random_database(rng, devices=3)
        before = list(database.devices)
        assert database.remove(vendor_mac("00:13:e8", 999)) is False
        assert list(database.devices) == before
        assert_pack_equivalent(database)


class TestPackRebuild:
    def test_random_mutation_sequence_stays_equivalent(self):
        rng = np.random.default_rng(12)
        database = ReferenceDatabase()
        pool = [vendor_mac("00:13:e8", i + 1) for i in range(25)]
        for _ in range(120):
            action = rng.random()
            device = pool[int(rng.integers(len(pool)))]
            if action < 0.6:
                database.add(device, random_signature(rng))  # add or replace
            else:
                database.remove(device)  # may be a no-op
            assert_pack_equivalent(database)

    def test_add_preserves_insertion_order_and_grows(self):
        rng = np.random.default_rng(13)
        database = ReferenceDatabase()
        devices = [vendor_mac("00:13:e8", i + 1) for i in range(40)]
        for device in devices:
            database.add(device, random_signature(rng))
            packed = database.packed()
            assert list(packed.devices) == database.devices
        assert database.packed().devices == tuple(devices)

    def test_replacement_keeps_row_position(self):
        rng = np.random.default_rng(14)
        database = random_database(rng, devices=5)
        database.packed()
        target = database.devices[2]
        replacement = random_signature(rng)
        database.add(target, replacement)
        packed = database.packed()
        assert packed.devices == tuple(database.devices)  # position kept
        for ftype, histogram in replacement.histograms.items():
            np.testing.assert_allclose(packed.frequencies[ftype][2], histogram)
        assert_pack_equivalent(database)

    def test_removing_last_member_purges_frame_type(self):
        database = ReferenceDatabase()
        a = vendor_mac("00:13:e8", 1)
        b = vendor_mac("00:13:e8", 2)
        database.add(a, one_type_signature("Data", 4))
        database.add(b, one_type_signature("Beacon", 4))
        database.packed()
        database.remove(b)
        packed = database.packed()
        assert set(packed.frame_types) == {"Data"}
        # A later re-add may use a *different* bin count for the purged
        # type: no device holds the old one any more.
        database.add(b, one_type_signature("Beacon", 9))
        assert database.packed().bin_count("Beacon") == 9
        assert_pack_equivalent(database)

    def test_conflicting_add_raises_and_changes_nothing(self):
        database = ReferenceDatabase()
        a = vendor_mac("00:13:e8", 1)
        b = vendor_mac("00:13:e8", 2)
        offender = vendor_mac("00:13:e8", 3)
        database.add(a, one_type_signature("Data", 4))
        database.add(b, one_type_signature("Beacon", 6))
        # A new device is refused, and so is a replacement that brings
        # a frame type another device holds at a different width.
        message = assert_add_refused(
            database, offender, one_type_signature("Data", 7)
        )
        assert "'Data'" in message and "7 bins" in message and "hold 4" in message
        wide = Signature(
            histograms={"Beacon": np.ones(6), "Data": np.ones(7)},
            weights={"Beacon": 0.5, "Data": 0.5},
        )
        assert_add_refused(database, b, wide)
        assert offender not in database
        assert_pack_equivalent(database)

    def test_replacing_the_only_holder_may_change_width(self):
        database = ReferenceDatabase()
        a = vendor_mac("00:13:e8", 1)
        b = vendor_mac("00:13:e8", 2)
        database.add(a, one_type_signature("Data", 4))
        database.add(b, one_type_signature("Beacon", 6))
        database.add(b, one_type_signature("Beacon", 9))
        assert database.packed().bin_count("Beacon") == 9
        assert database.devices == [a, b]
        # ...and the new width is the one later devices must match.
        assert_add_refused(
            database, vendor_mac("00:13:e8", 3), one_type_signature("Beacon", 6)
        )
        assert_pack_equivalent(database)

    def test_empty_database_packs_to_none_after_removals(self):
        database = ReferenceDatabase()
        device = vendor_mac("00:13:e8", 1)
        database.add(device, one_type_signature("Data", 4))
        database.packed()
        database.remove(device)
        assert database.packed() is None
        database.add(device, one_type_signature("Data", 4))
        assert database.packed() is not None


class TestSnapshotIteration:
    """``devices``/``items()`` snapshot, so mutation mid-iteration is safe."""

    def test_items_allows_mutation_while_iterating(self):
        rng = np.random.default_rng(16)
        database = random_database(rng, devices=10)
        seen = []
        for device, signature in database.items():
            seen.append(device)
            database.remove(device)  # would blow up on a live dict view
            database.add(vendor_mac("00:18:f8", len(seen)), signature)
        assert len(seen) == 10

    def test_devices_allows_mutation_while_iterating(self):
        rng = np.random.default_rng(17)
        database = random_database(rng, devices=8)
        for device in database.devices:
            database.remove(device)
        assert len(database) == 0

    def test_items_returns_insertion_ordered_list(self):
        rng = np.random.default_rng(18)
        database = random_database(rng, devices=5)
        items = database.items()
        assert isinstance(items, list)
        assert [device for device, _ in items] == database.devices


class TestMerge:
    def test_replace_policy_reports_conflicts(self):
        rng = np.random.default_rng(19)
        target = random_database(rng, devices=6)
        source = ReferenceDatabase()
        conflicting = target.devices[2]
        fresh = vendor_mac("00:18:f8", 50)
        replacement = random_signature(rng)
        source.add(conflicting, replacement)
        source.add(fresh, random_signature(rng))
        report = target.merge(source)
        assert report.added == [fresh]
        assert report.replaced == [conflicting]
        assert report.skipped == []
        assert report.conflicts == 1 and bool(report)
        assert target.get(conflicting) is replacement
        assert target.devices.index(conflicting) == 2  # row position kept
        assert target.devices[-1] == fresh
        assert_pack_equivalent(target)

    def test_keep_policy_preserves_existing_signatures(self):
        rng = np.random.default_rng(20)
        target = random_database(rng, devices=4)
        kept = target.get(target.devices[0])
        source = ReferenceDatabase()
        source.add(target.devices[0], random_signature(rng))
        report = target.merge(source, on_conflict="keep")
        assert report.skipped == [target.devices[0]]
        assert not report.added and not report.replaced
        assert not bool(report)  # nothing changed
        assert target.get(target.devices[0]) is kept

    def test_error_policy_raises_before_mutating(self):
        rng = np.random.default_rng(21)
        target = random_database(rng, devices=4)
        before = {device: target.get(device) for device in target.devices}
        source = ReferenceDatabase()
        source.add(vendor_mac("00:18:f8", 60), random_signature(rng))
        source.add(target.devices[1], random_signature(rng))
        with pytest.raises(ValueError, match="conflict"):
            target.merge(source, on_conflict="error")
        assert {device: target.get(device) for device in target.devices} == before

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            ReferenceDatabase().merge(ReferenceDatabase(), on_conflict="bogus")

    def test_merge_of_disjoint_databases_concatenates(self):
        rng = np.random.default_rng(22)
        target = random_database(rng, devices=3)
        source = ReferenceDatabase()
        extras = [vendor_mac("00:18:f8", i + 1) for i in range(3)]
        for device in extras:
            source.add(device, random_signature(rng))
        report = target.merge(source)
        assert report.added == extras and not report.conflicts
        assert target.devices[-3:] == extras
        assert_pack_equivalent(target)

    def test_merge_keeps_scores_equal_to_sequential_adds(self):
        rng = np.random.default_rng(23)
        a = random_database(rng, devices=5)
        b = random_database(rng, devices=5)
        merged = ReferenceDatabase()
        merged.merge(a)
        merged.merge(b)
        sequential = ReferenceDatabase()
        for device, signature in a.items() + b.items():
            sequential.add(device, signature)
        candidate = random_signature(rng)
        assert np.array_equal(
            batch_match_signatures([candidate], merged),
            batch_match_signatures([candidate], sequential),
        )


class TestMatchingAfterMutations:
    def test_match_scores_track_membership_changes(self):
        from repro.core.similarity import cosine_similarity

        rng = np.random.default_rng(15)
        database = random_database(rng, devices=10)
        candidate = random_signature(rng)
        for step in range(20):
            device = vendor_mac("00:13:e8", int(rng.integers(1, 15)))
            if rng.random() < 0.5:
                database.add(device, random_signature(rng))
            else:
                database.remove(device)
            if len(database) == 0:
                continue
            (fast,) = batch_match_signatures([candidate], database)
            slow = scalar_match(candidate, database, cosine_similarity)
            assert list(slow) == database.devices  # the column order
            np.testing.assert_allclose(fast, list(slow.values()), atol=1e-9)

    def test_stale_candidate_type_after_purge_contributes_zero(self):
        """A purged frame type must not shape-clash with candidates."""
        database = ReferenceDatabase()
        a = vendor_mac("00:13:e8", 1)
        b = vendor_mac("00:13:e8", 2)
        database.add(a, one_type_signature("Data", 4))
        database.add(b, one_type_signature("Beacon", 6))
        database.packed()
        database.remove(b)
        candidate = one_type_signature("Beacon", 3)  # different width
        assert database.devices == [a]
        assert batch_match_signatures([candidate], database).tolist() == [[0.0]]


def test_unit_rows_derive_once_in_gemm_layout(tmp_path):
    """The builder's pack and a loaded store's pack derive ``normalized``
    alike: the unit rows of ``frequencies``, stored so that their
    transpose (the GEMM's right-hand operand) is C-contiguous."""
    from repro.persistence import load_database, save_database

    database = random_database(np.random.default_rng(71), devices=30)
    packed = database.packed()
    save_database(database, tmp_path / "store")
    loaded = load_database(tmp_path / "store").database.packed()
    for ftype in packed.frame_types:
        for view in (packed, loaded):
            unit = view.normalized[ftype]
            assert np.array_equal(unit, normalize_rows(view.frequencies[ftype]))
            assert unit.T.flags.c_contiguous
        assert np.array_equal(packed.normalized[ftype], loaded.normalized[ftype])
