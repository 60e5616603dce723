"""Histogram binning and percentage-frequency distributions.

Signature construction (Section IV-A) converts raw observations into a
percentage frequency distribution per frame type: bin ``b_j``'s value
is ``o_j / |P^ftype(s)|``.  Two binning families cover the paper's
parameters: uniform-width bins over a range (times, sizes) and
categorical bins (the discrete 802.11 rate set).

Out-of-range values are **clipped into the edge bins** by default so a
heavy tail (e.g. very long inter-arrivals) still contributes mass
instead of silently vanishing; ``drop_outside=True`` reproduces strict
range-limited histograms.

Binning has one code path: :meth:`BinSpec.index_many` bins a whole
observation array in one NumPy pass, encoding discarded values as
index ``-1``, and :meth:`Histogram.add_array` counts the kept indices
with ``np.bincount``.  The scalar per-value rules are the test oracle
``tests.oracles.bin_index`` (DESIGN.md §3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class BinSpec:
    """Maps raw values onto bin indices."""

    #: Number of bins this spec produces.
    bin_count: int = 0

    def index_many(self, values: np.ndarray) -> np.ndarray:
        """Bin indices (int64) for an array of values (``-1`` = discard)."""
        raise NotImplementedError

    def bin_label(self, index: int) -> str:
        """Human-readable label of one bin (for rendering)."""
        raise NotImplementedError


@dataclass(frozen=True)
class UniformBins(BinSpec):
    """``k = (hi - lo) / width`` equal-width bins over ``[lo, hi)``."""

    lo: float
    hi: float
    width: float
    drop_outside: bool = False

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError(f"bin width must be positive: {self.width}")
        if self.hi <= self.lo:
            raise ValueError(f"empty bin range: [{self.lo}, {self.hi})")
        object.__setattr__(
            self, "bin_count", int(np.ceil((self.hi - self.lo) / self.width))
        )

    bin_count: int = field(init=False, default=0)

    def index_many(self, values: np.ndarray) -> np.ndarray:
        flat = np.asarray(values, dtype=np.float64).ravel()
        if np.isnan(flat).any():
            raise ValueError("cannot bin NaN values")
        below = flat < self.lo
        above = flat >= self.hi
        # Out-of-range values (±inf included) are replaced before the
        # integer cast so it never sees a non-finite quotient; their
        # indices are overwritten by the masks below.  In-range
        # quotients are non-negative, so int64 truncation is the floor.
        safe = np.where(below | above, self.lo, flat)
        indices = ((safe - self.lo) / self.width).astype(np.int64)
        if self.drop_outside:
            indices[below | above] = -1
        else:
            indices[below] = 0
            indices[above] = self.bin_count - 1
        return indices

    def bin_label(self, index: int) -> str:
        low = self.lo + index * self.width
        return f"[{low:g},{min(low + self.width, self.hi):g})"


@dataclass(frozen=True)
class CategoricalBins(BinSpec):
    """One bin per discrete category (e.g. the 802.11 rate set).

    A value falls into the first declared category within
    ``tolerance`` of it; a value near no category (NaN and ±inf
    included) is discarded.
    """

    categories: tuple[float, ...]
    tolerance: float = 1e-6

    def __post_init__(self) -> None:
        if not self.categories:
            raise ValueError("at least one category required")
        object.__setattr__(self, "bin_count", len(self.categories))

    bin_count: int = field(init=False, default=0)

    def index_many(self, values: np.ndarray) -> np.ndarray:
        flat = np.asarray(values, dtype=np.float64).ravel()
        indices = np.full(flat.shape[0], -1, dtype=np.int64)
        # Last category first, so where tolerance windows overlap the
        # first declared category is the last write and wins.
        for position in range(self.bin_count - 1, -1, -1):
            near = np.abs(flat - self.categories[position]) <= self.tolerance
            indices[near] = position
        return indices

    def bin_label(self, index: int) -> str:
        return f"{self.categories[index]:g}"


class Histogram:
    """A mutable observation accumulator over one bin spec."""

    __slots__ = ("spec", "counts", "total")

    def __init__(self, spec: BinSpec) -> None:
        self.spec = spec
        self.counts = np.zeros(spec.bin_count, dtype=np.int64)
        self.total = 0

    def add_array(self, values: np.ndarray) -> int:
        """Record a whole observation array in one vectorized pass.

        Bins with :meth:`BinSpec.index_many` and accumulates via
        ``np.bincount``.  Returns how many observations were kept.
        """
        flat = np.asarray(values, dtype=np.float64).ravel()
        if flat.size == 0:
            return 0
        indices = self.spec.index_many(flat)
        kept_indices = indices[indices >= 0]
        if kept_indices.size:
            self.counts += np.bincount(kept_indices, minlength=self.spec.bin_count)
        kept = int(kept_indices.size)
        self.total += kept
        return kept

    def frequencies(self) -> np.ndarray:
        """Percentage frequency distribution ``P_j = o_j / total``.

        An empty histogram yields the all-zero vector.
        """
        if self.total == 0:
            return np.zeros(self.spec.bin_count, dtype=np.float64)
        return self.counts.astype(np.float64) / self.total

    def __repr__(self) -> str:
        return f"<Histogram n={self.total} bins={self.spec.bin_count}>"
