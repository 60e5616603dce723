"""The monitor's capture buffer: captured frames as interned rows.

The simulated monitor records each frame it decodes as one row of a
:class:`~repro.traces.table.RowInterner` — timestamp, size, rate,
signal, the ``flags`` bits, the sender and frame-type codes, the
channel and the on-air :class:`~repro.dot11.frames.Dot11Frame` — rather
than as a :class:`~repro.dot11.capture.CapturedFrame`.  It is the same
interner :meth:`~repro.traces.table.FrameTable.from_frames` runs, so
the table of :meth:`CaptureBuffer.finish` is the table ``from_frames``
would intern from the same capture, built without a frame object or a
pass over frames.  :meth:`CaptureBuffer.drain` hands a live feed the
same columns chunk by chunk.  ``CapturedFrame`` objects are built only
when a caller asks for them (:meth:`Capture.frames`).
"""

from __future__ import annotations

from operator import itemgetter

import numpy as np

from repro.dot11.capture import CapturedFrame
from repro.dot11.frames import Dot11Frame
from repro.traces.table import FrameTable, RowInterner, row_column


def _check_order(stamps: np.ndarray, previous_us: float = -1.0) -> None:
    """Invariant check: monitor timestamps never run backwards.

    ``previous_us`` is the timestamp captured just before ``stamps``
    (a streamed capture checks each chunk against the last one).
    Sub-microsecond backwards jitter is tolerated.
    """
    if not stamps.size:
        return
    steps = np.diff(stamps, prepend=previous_us)
    if float(steps.min()) < -1e-6:
        at = int(steps.argmin())
        before = previous_us if at == 0 else float(stamps[at - 1])
        raise AssertionError(
            f"capture order violated: {float(stamps[at])} < {before}"
        )


class CaptureBuffer(RowInterner):
    """Rows of the frames a monitor captured, interned as they arrive."""

    __slots__ = ()

    def finish(self) -> Capture:
        """Hand over the rows as columns (the end of a run).

        The rows are cleared.  Raises :class:`AssertionError` if the
        timestamps run backwards.
        """
        rows = self.take()
        table = self.table(rows)
        _check_order(table.timestamp_us)
        return Capture(
            table,
            on_air=list(map(itemgetter(8), rows)),
            signal_dbm=row_column(rows, 3, np.float64),
            channel=row_column(rows, 7, np.int16),
        )

    def drain(self, previous_us: float = -1.0) -> FrameTable:
        """The frames captured since the last drain, as a table (a live
        feed).

        The rows are cleared and the intern codes kept, so a live feed
        holds at most one drain's worth of rows and every drained table
        codes a sender alike.  The drained timestamps are checked
        against ``previous_us``, the last timestamp the caller received.
        """
        table = self.table(self.take())
        _check_order(table.timestamp_us, previous_us)
        return table


class Capture:
    """A finished capture: its table, plus what frame objects need.

    Beyond the :class:`~repro.traces.table.FrameTable` columns, a
    :class:`CapturedFrame` needs the signal, the channel and the
    on-air frame; those are kept as two columns and a list, not as
    rows, so a finished capture costs tens of bytes per frame.
    """

    __slots__ = ("table", "_on_air", "_signal_dbm", "_channel")

    def __init__(
        self,
        table: FrameTable,
        on_air: list[Dot11Frame],
        signal_dbm: np.ndarray,
        channel: np.ndarray,
    ) -> None:
        self.table = table
        self._on_air = on_air
        self._signal_dbm = signal_dbm
        self._channel = channel

    def __len__(self) -> int:
        return len(self._on_air)

    def frames(self) -> list[CapturedFrame]:
        """The capture as :class:`CapturedFrame` objects, in order.

        Float64 columns hand back the exact floats the simulator
        computed, so these equal the frames it would have built.
        """
        table = self.table
        return [
            CapturedFrame(timestamp_us, frame, rate_mbps, signal_dbm, channel)
            for timestamp_us, frame, rate_mbps, signal_dbm, channel in zip(
                table.timestamp_us.tolist(),
                self._on_air,
                table.rate_mbps.tolist(),
                self._signal_dbm.tolist(),
                self._channel.tolist(),
            )
        ]
