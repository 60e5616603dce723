"""Shared-channel arbitration: the DCF contention engine.

The medium serialises transmissions on one channel.  Contention follows
802.11 DCF semantics with the freeze/resume backoff model:

* when the medium goes idle, every contender's earliest transmit time
  is ``idle_start + DIFS_i + counter_i × slot`` (``DIFS_i`` carries the
  device's timing personality, ``counter_i`` its quirky backoff draw);
* the earliest contender wins and runs its exchange atomically (the
  NAV protects RTS/CTS/DATA/ACK sequences from interleaving);
* contenders whose transmit times fall within half a slot of the
  winner's collide — all their frames air and are lost;
* losers deduct the slots that elapsed before the medium went busy
  (freeze semantics) and resume in the next idle period.

Event-queue staleness is handled with generation tokens so arbitration
can be recomputed whenever membership changes; a round's access times
are computed once, when it is scheduled, and reused when it fires.
What the monitor decodes goes to the medium's
:class:`~repro.simulator.capture.CaptureBuffer`.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable

from repro.dot11.frames import Dot11Frame
from repro.simulator.capture import CaptureBuffer
from repro.simulator.device import Station
from repro.simulator.events import EventQueue

#: Signature of reactive hooks: (sender, frame, air-end time in µs).
AiredHook = Callable[[Station, Dot11Frame, float], None]

_TX_TIME = itemgetter(0)


class Medium:
    """Single-channel DCF arbitration and capture collection."""

    def __init__(self, queue: EventQueue) -> None:
        self.queue = queue
        self.busy_until = 0.0
        self.contention_start = 0.0
        self.contenders: dict[Station, float] = {}  # station -> join time
        #: What the monitor decoded, as interned rows.
        self.capture = CaptureBuffer()
        #: Reactive listeners (e.g. an AP answering probe requests).
        self.aired_hooks: list[AiredHook] = []
        self._generation = 0
        # The scheduled round: (tx time, station, contention start) per
        # contender, valid while ``_generation`` is unchanged.
        self._round: list[tuple[float, Station, float]] = []
        self._exchanges = 0
        self._collision_rounds = 0

    @property
    def exchange_count(self) -> int:
        """Number of completed medium accesses (incl. collisions)."""
        return self._exchanges

    @property
    def collision_rounds(self) -> int:
        """Number of arbitration rounds that ended in a collision."""
        return self._collision_rounds

    # ------------------------------------------------------------------
    def join(self, station: Station, now_us: float) -> None:
        """Register a station that has (newly) pending traffic."""
        if station in self.contenders:
            return
        self.contenders[station] = now_us
        if now_us >= self.busy_until:
            # Medium is idle: this join opens (or extends) a contention
            # round anchored at the later of idle start and join time.
            self.contention_start = max(self.contention_start, self.busy_until)
        self._reschedule(now_us)

    # ------------------------------------------------------------------
    def _reschedule(self, now_us: float) -> None:
        """Compute the round's access times and schedule its winner.

        Every input of an access time (the contenders, their backoff
        state, the anchor) changes only through :meth:`join` or
        :meth:`_fire`, and both end here with a new generation, so
        :meth:`_fire` reuses these times instead of recomputing them.
        """
        self._generation += 1
        generation = self._generation
        if not self.contenders:
            self._round = []
            return
        anchor = max(self.contention_start, self.busy_until)
        timed = []
        earliest = None
        for station, join_us in self.contenders.items():
            start = max(anchor, join_us)
            tx_time = station.access_time(start)
            timed.append((tx_time, station, start))
            if earliest is None or tx_time < earliest:
                earliest = tx_time
        self._round = timed
        fire_at = max(earliest, now_us)
        self.queue.schedule(fire_at, lambda: self._fire(generation))

    def _fire(self, generation: int) -> None:
        """Execute the arbitration winner (or the collision set)."""
        if generation != self._generation:
            return  # superseded by a membership change
        now = self.queue.now
        timed = self._round
        self._exchanges += 1
        if len(timed) == 1:
            # One contender (most rounds): it wins alone, nobody freezes.
            win_time, winner, _start = timed[0]
            colliders = []
        else:
            timed.sort(key=_TX_TIME)
            win_time, winner, _start = timed[0]
            half_slot = winner.timing.slot_us / 2
            colliders = [
                station for tx, station, _ in timed[1:] if tx - win_time < half_slot
            ]

        aired = None
        if colliders:
            self._collision_rounds += 1
            end = winner.execute_collision_leg(win_time)
            for station in colliders:
                end = max(end, station.execute_collision_leg(win_time))
            participants = [winner, *colliders]
        else:
            outcome = winner.execute_exchange(win_time, self.capture)
            end = outcome.busy_until_us
            participants = [winner]
            aired = outcome.aired

        # Freeze semantics for everyone who lost this round.
        for _tx, station, start in timed:
            if station not in participants:
                station.consume_elapsed_slots(win_time, start)

        for station in participants:
            if not station.wants_medium:
                del self.contenders[station]
            else:
                # Re-anchor the retry/post-tx contention at round end.
                self.contenders[station] = end
        self.busy_until = max(self.busy_until, end)
        self.contention_start = self.busy_until

        # Reactive hooks run after bookkeeping so joins they trigger see
        # a consistent medium state; they reschedule internally.
        if aired is not None:
            for hook in self.aired_hooks:
                hook(winner, aired, end)
        self._reschedule(now)
