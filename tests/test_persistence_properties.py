"""Property-based tests for persistence round-trips and the pack.

Two properties the ISSUE pins down:

* ``load(save(db)) == db`` bin for bin, for *arbitrary* generated
  databases — including sparse histograms, devices missing frame
  types, missing observation counts, and ragged bin widths;
* under any add/replace/remove sequence the incrementally maintained
  :class:`~repro.core.database.PackedDatabase` stays equal to a fresh
  :func:`tests.oracles.pack` rebuild (the stateful
  counterpart of the example-based tests in ``tests/test_database.py``).
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.dot11.mac import MacAddress, vendor_mac
from repro.core.database import ReferenceDatabase
from repro.core.matcher import batch_match_signatures
from repro.core.signature import Signature
from repro.persistence import load_database, save_database
from tests.test_database import assert_pack_equivalent
from tests.test_persistence import assert_databases_equal

FRAME_TYPES = ("Data", "Beacon", "RTS", "Probe Request", "QoS Data")


@st.composite
def signatures(draw, bin_count: int | None = None) -> Signature:
    """Arbitrary (but valid) signatures, sparse support included."""
    present = draw(
        st.lists(
            st.sampled_from(FRAME_TYPES), min_size=1, max_size=4, unique=True
        )
    )
    bins = (
        bin_count
        if bin_count is not None
        else draw(st.integers(min_value=1, max_value=12))
    )
    histograms: dict[str, np.ndarray] = {}
    weights: dict[str, float] = {}
    counts: dict[str, int] = {}
    for ftype in present:
        values = draw(
            st.lists(
                st.floats(min_value=0.0, max_value=1.0),
                min_size=bins,
                max_size=bins,
            )
        )
        histograms[ftype] = np.asarray(values, dtype=np.float64)
        weights[ftype] = draw(st.floats(min_value=0.0, max_value=1.0))
        if draw(st.booleans()):
            counts[ftype] = draw(st.integers(min_value=0, max_value=10_000))
    return Signature(
        histograms=histograms, weights=weights, observation_counts=counts
    )


@st.composite
def databases(draw) -> ReferenceDatabase:
    """Databases mixing device structure; sometimes ragged."""
    database = ReferenceDatabase()
    device_count = draw(st.integers(min_value=0, max_value=8))
    ragged = draw(st.booleans())
    shared_bins = draw(st.integers(min_value=1, max_value=12))
    for index in range(device_count):
        bins = None if ragged else shared_bins
        database.add(
            vendor_mac("00:13:e8", index + 1), draw(signatures(bin_count=bins))
        )
    return database


class TestRoundTripProperty:
    @given(database=databases())
    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
    def test_load_save_identity(self, database, tmp_path_factory):
        store = tmp_path_factory.mktemp("prop-store") / "db"
        save_database(database, store, parameter="interarrival")
        loaded = load_database(store)
        assert loaded.parameter == "interarrival"
        assert_databases_equal(database, loaded.database)

    @given(database=databases())
    @settings(max_examples=25, suppress_health_check=[HealthCheck.too_slow])
    def test_loaded_scores_bitwise_equal(self, database, tmp_path_factory):
        assume(len(database) > 0 and database.packed() is not None)
        store = tmp_path_factory.mktemp("prop-score") / "db"
        save_database(database, store)
        loaded = load_database(store).database
        # The database's own signatures double as window candidates —
        # guaranteed bin-compatible with every reference.
        candidates = [signature for _, signature in database.items()][:3]
        assert np.array_equal(
            batch_match_signatures(candidates, database),
            batch_match_signatures(candidates, loaded),
        )


class PackConsistencyMachine(RuleBasedStateMachine):
    """Stateful property: the incremental pack never drifts.

    Random interleavings of add / replace / remove (including ragged
    transitions and frame-type purges) must leave
    ``ReferenceDatabase.packed()`` equal to a from-scratch
    :func:`tests.oracles.pack` rebuild.
    """

    POOL = [vendor_mac("00:13:e8", index + 1) for index in range(8)]

    def __init__(self) -> None:
        super().__init__()
        self.database = ReferenceDatabase()
        self.database.packed()  # start on the incremental path

    @rule(index=st.integers(min_value=0, max_value=7), signature=signatures())
    def add_or_replace(self, index: int, signature: Signature) -> None:
        self.database.add(self.POOL[index], signature)

    @rule(index=st.integers(min_value=0, max_value=7))
    def remove(self, index: int) -> None:
        self.database.remove(self.POOL[index])

    @rule()
    def read_pack(self) -> None:
        # Materialising the snapshot between mutations exercises the
        # cache-staleness bookkeeping, not just the final state.
        self.database.packed()

    @invariant()
    def pack_matches_fresh_rebuild(self) -> None:
        assert_pack_equivalent(self.database)

    @invariant()
    def membership_is_consistent(self) -> None:
        packed = self.database.packed()
        if packed is not None:
            assert list(packed.devices) == self.database.devices


PackConsistencyMachine.TestCase.settings = settings(
    max_examples=30,
    stateful_step_count=30,
    suppress_health_check=[HealthCheck.too_slow],
)
TestPackConsistency = PackConsistencyMachine.TestCase
