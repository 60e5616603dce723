"""Two-dimensional (joint) histogram signatures — §IV-A extension.

The paper notes that plain histograms "may eliminate characteristic
patterns" and name-checks n-dimensional histograms as a candidate
refinement.  This module implements the 2-D case: a
:class:`JointParameter` measures a *pair* of the five base parameters
per frame and bins the pair into a flattened 2-D histogram, which then
flows through the unchanged signature/matching machinery.

Example: the (inter-arrival × frame size) joint distribution separates
"short gap because of a small frame" from "short gap because of an
aggressive backoff", which the marginals confuse.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.histogram import BinSpec
from repro.core.parameters import NetworkParameter, parameter_by_name
from repro.traces.table import FrameTable, TableObservations


@dataclass(frozen=True)
class JointBins(BinSpec):
    """Cartesian product of two bin specs, flattened row-major.

    The values passed to :meth:`index_many` are already flattened joint
    bins ``ix * y_bins.bin_count + iy`` (:meth:`JointParameter.observe_table`
    bins each component); the flattening keeps the downstream histogram
    and similarity code unchanged (they only see one long vector).
    """

    x_bins: BinSpec
    y_bins: BinSpec

    bin_count: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "bin_count", self.x_bins.bin_count * self.y_bins.bin_count)

    def index_many(self, values: np.ndarray) -> np.ndarray:
        indices = np.asarray(values, dtype=np.float64).ravel().astype(np.int64)
        indices[(indices < 0) | (indices >= self.bin_count)] = -1
        return indices

    def bin_label(self, index: int) -> str:
        ix, iy = divmod(index, self.y_bins.bin_count)
        return f"{self.x_bins.bin_label(ix)}×{self.y_bins.bin_label(iy)}"


class JointParameter(NetworkParameter):
    """A pair of base parameters measured jointly per frame.

    ``x``/``y`` are base-parameter names (``rate``, ``size``,
    ``txtime``, ``interarrival``, ``access``).  Bin specs default to
    the base parameters' own defaults.  A pair reading the channel
    clock (inter-arrival or access) streams like its component: the
    carried clock is forwarded to both components.
    """

    def __init__(
        self,
        x: str,
        y: str,
        x_bins: BinSpec | None = None,
        y_bins: BinSpec | None = None,
    ) -> None:
        x_parameter = parameter_by_name(x)
        y_parameter = parameter_by_name(y)
        if x == y:
            raise ValueError("joint parameter needs two distinct base parameters")
        #: The two base parameters, ``(x, y)``.
        self.components = (x_parameter, y_parameter)
        self.name = f"joint:{x}x{y}"
        self.label = f"Joint {x_parameter.label} × {y_parameter.label}"
        self.table_memory = max(x_parameter.table_memory, y_parameter.table_memory)
        self._bins = JointBins(
            x_bins=x_bins if x_bins is not None else x_parameter.default_bins(),
            y_bins=y_bins if y_bins is not None else y_parameter.default_bins(),
        )

    def default_bins(self) -> BinSpec:
        return self._bins

    def observe_table(
        self, table: FrameTable, previous_t: float | None = None
    ) -> TableObservations:
        """Rows both components observe, valued by their flattened joint bin.

        A pair where either component's value is discarded by its bins
        is dropped here, so it never enters the signature's first-seen
        order.  ``previous_t`` goes to both components.
        """
        x_parameter, y_parameter = self.components
        x = x_parameter.observe_table(table, previous_t)
        y = y_parameter.observe_table(table, previous_t)
        positions, x_at, y_at = np.intersect1d(
            x.positions, y.positions, assume_unique=True, return_indices=True
        )
        ix = self._bins.x_bins.index_many(x.values[x_at])
        iy = self._bins.y_bins.index_many(y.values[y_at])
        kept = (ix >= 0) & (iy >= 0)
        positions = positions[kept]
        joint = ix[kept] * self._bins.y_bins.bin_count + iy[kept]
        return TableObservations(
            sender_idx=table.sender_idx[positions],
            ftype_idx=table.ftype_idx[positions],
            values=joint.astype(np.float64),
            positions=positions,
        )
