"""Frame conditions of the Section VI factor experiments, as row masks.

The paper repeatedly conditions histograms on frame subsets: Figure 4
uses "only data frames transmitted the first time (no retries) and sent
at 54 Mbps", Figure 7 "only data broadcast frames", Figure 8 "solely
Data null function frames".  Each condition is one function from a
:class:`~repro.traces.table.FrameTable` to a boolean row mask, read off
the frame-type codes, the rate column and the ``flags`` bits; a
conjunction is ``&`` of masks.
"""

from __future__ import annotations

import numpy as np

from repro.dot11.frames import FrameSubtype, FrameType
from repro.traces.table import GROUP_ADDRESSED, RETRY, FrameTable

#: Frame-type labels of the data family (data, QoS and null variants).
_DATA_LABELS = frozenset(
    subtype.label for subtype in FrameSubtype if subtype.ftype is FrameType.DATA
)
#: Frame-type labels of the (QoS) null-function frames.
_NULL_FUNCTION_LABELS = frozenset(
    subtype.label for subtype in (FrameSubtype.NULL_FUNCTION, FrameSubtype.QOS_NULL)
)


def data_frames_only(table: FrameTable) -> np.ndarray:
    """Data-type frames (including QoS and null variants)."""
    return table.mask_ftypes(_DATA_LABELS)


def first_transmissions_only(table: FrameTable) -> np.ndarray:
    """Frames with the retry bit clear (first transmission)."""
    return (table.flags & RETRY) == 0


def broadcast_data_only(table: FrameTable) -> np.ndarray:
    """Group-addressed data frames (the Figure 7 condition)."""
    return data_frames_only(table) & ((table.flags & GROUP_ADDRESSED) != 0)


def null_function_only(table: FrameTable) -> np.ndarray:
    """(QoS) null-function frames (the Figure 8 condition)."""
    return table.mask_ftypes(_NULL_FUNCTION_LABELS)


def sent_at_rate(table: FrameTable, rate_mbps: float) -> np.ndarray:
    """Frames transmitted at exactly ``rate_mbps``."""
    return np.abs(table.rate_mbps - rate_mbps) < 1e-9
