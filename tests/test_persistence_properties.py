"""Property-based tests for persistence round-trips and the pack.

Two properties the ISSUE pins down:

* ``load(save(db)) == db`` bin for bin, for *arbitrary* generated
  databases — including sparse histograms, devices missing frame
  types, missing observation counts, and frame types of different
  widths;
* under any add/replace/remove sequence the
  :class:`~repro.core.database.PackedDatabase` that ``packed()``
  rebuilds equals the :func:`tests.oracles.pack` oracle bit for bit,
  and an ``add`` whose histogram width conflicts with another device's
  raises and changes nothing (the stateful counterpart of the
  example-based tests in ``tests/test_database.py``).
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
from tests.test_database import assert_add_refused, assert_pack_equivalent
from tests.test_persistence import assert_databases_equal

FRAME_TYPES = ("Data", "Beacon", "RTS", "Probe Request", "QoS Data")


@st.composite
def signatures(draw, widths: dict[str, int] | None = None) -> Signature:
    """Arbitrary (but valid) signatures, sparse support included.

    Frame type ``f`` gets ``widths[f]`` bins.  Without ``widths`` every
    frame type gets one drawn width of 3 or 4 bins, so that signatures
    drawn one after another sometimes conflict.
    """
    present = draw(
        st.lists(
            st.sampled_from(FRAME_TYPES), min_size=1, max_size=4, unique=True
        )
    )
    if widths is None:
        widths = dict.fromkeys(present, draw(st.integers(min_value=3, max_value=4)))
    histograms: dict[str, np.ndarray] = {}
    weights: dict[str, float] = {}
    counts: dict[str, int] = {}
    for ftype in present:
        bins = widths[ftype]
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
    """Databases mixing device structure, one drawn width per frame type."""
    database = ReferenceDatabase()
    device_count = draw(st.integers(min_value=0, max_value=8))
    widths = draw(
        st.fixed_dictionaries(
            {ftype: st.integers(min_value=1, max_value=12) for ftype in FRAME_TYPES}
        )
    )
    for index in range(device_count):
        database.add(
            vendor_mac("00:13:e8", index + 1), draw(signatures(widths=widths))
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
        assume(len(database) > 0)
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
    """Stateful property: the pack never drifts from the oracle.

    Random interleavings of add / replace / remove (including width
    conflicts, width changes of a frame type's only holder and
    frame-type purges) must leave ``ReferenceDatabase.packed()`` equal
    to the :func:`tests.oracles.pack` oracle.
    """

    POOL = [vendor_mac("00:13:e8", index + 1) for index in range(8)]

    def __init__(self) -> None:
        super().__init__()
        self.database = ReferenceDatabase()

    @rule(index=st.integers(min_value=0, max_value=7), signature=signatures())
    def add_or_replace(self, index: int, signature: Signature) -> None:
        device = self.POOL[index]
        conflict = any(
            ftype in other.histograms
            and other.histograms[ftype].shape != histogram.shape
            for other_device, other in self.database.items()
            if other_device != device
            for ftype, histogram in signature.histograms.items()
        )
        if conflict:
            assert_add_refused(self.database, device, signature)
        else:
            self.database.add(device, signature)

    @rule(index=st.integers(min_value=0, max_value=7))
    def remove(self, index: int) -> None:
        self.database.remove(self.POOL[index])

    @rule()
    def read_pack(self) -> None:
        # Materialising the pack between mutations exercises the
        # cache invalidation, not just the final state.
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
