"""The monitor's capture buffer: captured frames as interned rows.

The simulated monitor records each frame it decodes as one row —
timestamp, size, rate, signal, the ``flags`` bits, the sender and
frame-type codes, the channel and the on-air
:class:`~repro.dot11.frames.Dot11Frame` — rather than as a
:class:`~repro.dot11.capture.CapturedFrame`.  Codes are assigned at
first capture, in capture order, exactly as
:meth:`~repro.traces.table.FrameTable.from_frames` assigns them, so
the table of :meth:`CaptureBuffer.finish` is the table ``from_frames``
would intern from the same capture, built without a frame object or a
pass over frames.  ``CapturedFrame`` objects are built only when a
caller asks for them (:meth:`Capture.frames`, and
:meth:`CaptureBuffer.drain` for a live feed).
"""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING

import numpy as np

from repro.dot11.capture import FROM_DS, GROUP_ADDRESSED, RETRY, CapturedFrame
from repro.dot11.frames import Dot11Frame, FrameSubtype
from repro.dot11.mac import MacAddress

if TYPE_CHECKING:
    from repro.traces.table import FrameTable


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


class CaptureBuffer:
    """Rows of the frames a monitor captured, interned as they arrive."""

    __slots__ = ("rows", "senders", "subtypes", "_sender_codes", "_ftype_codes")

    def __init__(self) -> None:
        #: ``(timestamp_us, size, rate_mbps, signal_dbm, flags,
        #: sender_code, ftype_code, channel, frame)`` per captured frame.
        self.rows: list[tuple] = []
        #: Interned senders and frame subtypes, in first-capture order.
        self.senders: list[MacAddress] = []
        self.subtypes: list[FrameSubtype] = []
        # Keyed by the MAC's integer and the subtype's name: both hash
        # in C, where a MacAddress or an enum member hashes in Python.
        self._sender_codes: dict[int, int] = {}
        self._ftype_codes: dict[str, int] = {}

    def append(
        self,
        timestamp_us: float,
        frame: Dot11Frame,
        rate_mbps: float,
        signal_dbm: float,
        channel: int,
    ) -> None:
        """Record one captured frame."""
        sender = frame.addr2
        if sender is None:
            sender_code = -1
        else:
            sender_code = self._sender_codes.get(sender.value)
            if sender_code is None:
                sender_code = self._sender_codes[sender.value] = len(self.senders)
                self.senders.append(sender)
        subtype = frame.subtype
        ftype_code = self._ftype_codes.get(subtype._name_)
        if ftype_code is None:
            ftype_code = self._ftype_codes[subtype._name_] = len(self.subtypes)
            self.subtypes.append(subtype)
        flags = (
            (RETRY if frame.retry else 0)
            | (FROM_DS if frame.from_ds else 0)
            | (GROUP_ADDRESSED if frame.addr1.is_multicast else 0)
        )
        self.rows.append(
            (
                timestamp_us,
                frame.size,
                rate_mbps,
                signal_dbm,
                flags,
                sender_code,
                ftype_code,
                channel,
                frame,
            )
        )

    def finish(self) -> Capture:
        """Hand over the rows as columns (the end of a run).

        The rows are cleared.  Raises :class:`AssertionError` if the
        timestamps run backwards.
        """
        from repro.traces.table import FrameTable

        rows, self.rows = self.rows, []
        count = len(rows)

        def column(index: int, dtype) -> np.ndarray:
            return np.fromiter(map(itemgetter(index), rows), dtype=dtype, count=count)

        timestamp_us = column(0, np.float64)
        _check_order(timestamp_us)
        table = FrameTable(
            timestamp_us=timestamp_us,
            size=column(1, np.float64),
            rate_mbps=column(2, np.float64),
            sender_idx=column(5, np.int64),
            ftype_idx=column(6, np.int64),
            senders=tuple(self.senders),
            ftype_keys=tuple(subtype.label for subtype in self.subtypes),
            flags=column(4, np.uint8),
        )
        return Capture(
            table,
            on_air=list(map(itemgetter(8), rows)),
            signal_dbm=column(3, np.float64),
            channel=column(7, np.int16),
        )

    def drain(self, previous_us: float = -1.0) -> list[CapturedFrame]:
        """Hand over the frames captured since the last drain (a live
        feed).

        The rows are cleared (the intern codes are kept), so a live
        feed holds at most one drain's worth of rows.  The drained
        timestamps are checked against ``previous_us``, the last
        timestamp the caller received.
        """
        rows, self.rows = self.rows, []
        _check_order(
            np.fromiter(map(itemgetter(0), rows), dtype=np.float64, count=len(rows)),
            previous_us,
        )
        return [
            CapturedFrame(timestamp_us, frame, rate_mbps, signal_dbm, channel)
            for timestamp_us, _, rate_mbps, signal_dbm, _, _, _, channel, frame in rows
        ]


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
