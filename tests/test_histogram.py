"""Unit and property tests for histogram binning."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.histogram import CategoricalBins, Histogram, UniformBins
from tests.oracles import bin_index


def binned(spec, values) -> list[int]:
    return spec.index_many(np.array(values, dtype=np.float64)).tolist()


class TestUniformBins:
    def test_bin_count(self):
        assert UniformBins(lo=0, hi=100, width=10).bin_count == 10
        assert UniformBins(lo=0, hi=105, width=10).bin_count == 11

    def test_index_interior(self):
        bins = UniformBins(lo=0, hi=100, width=10)
        assert binned(bins, [0.0, 9.999, 10.0, 99.9]) == [0, 0, 1, 9]

    def test_clipping_default(self):
        bins = UniformBins(lo=0, hi=100, width=10)
        assert binned(bins, [-5.0, 150.0]) == [0, 9]

    def test_drop_outside(self):
        bins = UniformBins(lo=0, hi=100, width=10, drop_outside=True)
        assert binned(bins, [-5.0, 150.0, 50.0]) == [-1, -1, 5]

    def test_validation(self):
        with pytest.raises(ValueError):
            UniformBins(lo=0, hi=100, width=0)
        with pytest.raises(ValueError):
            UniformBins(lo=100, hi=100, width=10)

    def test_labels(self):
        bins = UniformBins(lo=0, hi=30, width=10)
        assert bins.bin_label(0) == "[0,10)"
        assert bins.bin_label(2) == "[20,30)"

    @given(st.floats(min_value=0, max_value=99.999, allow_nan=False))
    def test_index_in_range_property(self, value):
        bins = UniformBins(lo=0, hi=100, width=7)
        (index,) = binned(bins, [value])
        assert 0 <= index < bins.bin_count
        low = bins.lo + index * bins.width
        assert low <= value < low + bins.width + 1e-9


class TestCategoricalBins:
    def test_rate_categories(self):
        bins = CategoricalBins(categories=(1.0, 2.0, 5.5, 11.0, 54.0))
        assert binned(bins, [5.5, 54.0]) == [2, 4]

    def test_unknown_category_dropped(self):
        bins = CategoricalBins(categories=(1.0, 2.0))
        assert binned(bins, [3.0]) == [-1]

    def test_tolerance(self):
        bins = CategoricalBins(categories=(5.5,), tolerance=0.01)
        assert binned(bins, [5.505, 5.6]) == [0, -1]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CategoricalBins(categories=())

    def test_labels(self):
        bins = CategoricalBins(categories=(5.5, 54.0))
        assert bins.bin_label(0) == "5.5"
        assert bins.bin_label(1) == "54"

    def test_unsorted_categories_keep_declared_positions(self):
        bins = CategoricalBins(categories=(54.0, 1.0, 11.0, 2.0, 5.5))
        assert binned(bins, bins.categories) == [0, 1, 2, 3, 4]

    def test_overlapping_windows_first_declared_wins(self):
        """5.05 lies within 0.2 of both categories: the first declared
        one takes it, in either declaration order."""
        assert binned(CategoricalBins((5.0, 5.1), tolerance=0.2), [5.05, 5.25]) == [0, 1]
        assert binned(CategoricalBins((5.1, 5.0), tolerance=0.2), [5.05, 4.85]) == [0, 1]

    def test_nan_and_infinities_discarded(self):
        bins = CategoricalBins(categories=(1.0, 2.0))
        assert binned(bins, [float("nan"), float("inf"), float("-inf"), 1.0]) == [
            -1,
            -1,
            -1,
            0,
        ]


class TestHistogram:
    def test_add_and_frequencies(self):
        histogram = Histogram(UniformBins(lo=0, hi=10, width=1))
        assert histogram.add_array(np.array([0.5, 0.7, 3.2, 9.9])) == 4
        frequencies = histogram.frequencies()
        assert frequencies[0] == pytest.approx(0.5)
        assert frequencies[3] == pytest.approx(0.25)
        assert frequencies.sum() == pytest.approx(1.0)

    def test_empty_frequencies_are_zero(self):
        histogram = Histogram(UniformBins(lo=0, hi=10, width=1))
        assert histogram.frequencies().sum() == 0.0

    def test_dropped_values_not_counted(self):
        histogram = Histogram(UniformBins(lo=0, hi=10, width=1, drop_outside=True))
        assert histogram.add_array(np.array([1.0, 2.0, 100.0])) == 2
        assert histogram.total == 2

    def test_add_array_empty(self):
        histogram = Histogram(UniformBins(lo=0, hi=10, width=1))
        assert histogram.add_array(np.array([])) == 0
        assert histogram.total == 0

    def test_add_array_accumulates(self):
        histogram = Histogram(UniformBins(lo=0, hi=10, width=1))
        histogram.add_array(np.array([1.0, 2.0]))
        histogram.add_array(np.array([2.0, 3.0]))
        assert histogram.total == 4
        assert histogram.counts.tolist() == [0, 1, 2, 1, 0, 0, 0, 0, 0, 0]

    @given(st.lists(st.floats(min_value=-50, max_value=150, allow_nan=False), max_size=200))
    def test_frequencies_always_normalised(self, values):
        histogram = Histogram(UniformBins(lo=0, hi=100, width=10))
        histogram.add_array(np.array(values, dtype=np.float64))
        frequencies = histogram.frequencies()
        assert np.all(frequencies >= 0)
        if values:
            assert frequencies.sum() == pytest.approx(1.0)
        assert histogram.total == len(values)  # clipping keeps everything


VECTOR_SPECS = [
    UniformBins(lo=0, hi=100, width=7),
    UniformBins(lo=-20, hi=80, width=13, drop_outside=True),
    CategoricalBins(categories=(5.5, 1.0, 54.0, 2.0, 11.0)),
    CategoricalBins(categories=(1.0, 1.1, 1.2), tolerance=0.08),
    # Overlapping tolerance windows: the first declared category wins.
    CategoricalBins(categories=(5.0, 5.1), tolerance=0.2),
]

#: Values in and around every spec's range, values within a hair of
#: the categories and their tolerance edges, NaN and ±inf.
VALUES = st.lists(
    st.one_of(
        st.floats(min_value=-60, max_value=160),
        st.builds(
            lambda category, offset: category + offset,
            st.sampled_from([1.0, 1.1, 1.2, 2.0, 5.0, 5.1, 5.5, 11.0, 54.0]),
            st.floats(min_value=-0.3, max_value=0.3),
        ),
        st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    ),
    max_size=150,
)


def oracle_or_error(spec, values) -> list[int | None] | type[ValueError]:
    """The scalar oracle's bins, or ``ValueError`` if a value raises."""
    try:
        return [bin_index(spec, value) for value in values]
    except ValueError:
        return ValueError


class TestOracleEquivalence:
    """``index_many`` and ``add_array`` against the scalar rules."""

    @pytest.mark.parametrize("spec", VECTOR_SPECS, ids=lambda s: type(s).__name__ + str(s.bin_count))
    @given(values=VALUES)
    def test_index_many_matches_oracle(self, spec, values):
        array = np.array(values, dtype=np.float64)
        expected = oracle_or_error(spec, values)
        if expected is ValueError:
            with pytest.raises(ValueError):
                spec.index_many(array)
            return
        vectorized = spec.index_many(array)
        assert vectorized.dtype == np.int64
        assert [None if i < 0 else i for i in vectorized.tolist()] == expected

    @pytest.mark.parametrize("spec", VECTOR_SPECS, ids=lambda s: type(s).__name__ + str(s.bin_count))
    @given(values=VALUES)
    def test_add_array_matches_oracle(self, spec, values):
        expected = oracle_or_error(spec, values)
        if expected is ValueError:
            return
        histogram = Histogram(spec)
        kept = histogram.add_array(np.array(values, dtype=np.float64))
        indices = [index for index in expected if index is not None]
        assert kept == histogram.total == len(indices)
        assert np.array_equal(
            histogram.counts, np.bincount(indices, minlength=spec.bin_count)
        )

    def test_uniform_nan_raises_like_oracle(self):
        bins = UniformBins(lo=0, hi=10, width=1)
        with pytest.raises(ValueError):
            bin_index(bins, float("nan"))
        with pytest.raises(ValueError):
            bins.index_many(np.array([1.0, float("nan")]))

    def test_uniform_infinities_clip_like_oracle(self):
        for drop in (False, True):
            bins = UniformBins(lo=0, hi=10, width=1, drop_outside=drop)
            values = [float("-inf"), float("inf"), 5.0]
            assert [None if i < 0 else i for i in binned(bins, values)] == [
                bin_index(bins, value) for value in values
            ]
