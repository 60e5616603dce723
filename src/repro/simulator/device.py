"""Simulated 802.11 stations.

A :class:`Station` owns a transmit queue, the DCF backoff state, its
profile's timing personality, a rate controller and a mobility process.
The medium (:mod:`repro.simulator.medium`) arbitrates *when* a station
transmits; the station decides *what* goes on air — RTS/CTS usage,
rates, frame construction — and performs the channel/monitor draws for
its exchange, appending what the monitor decodes to a
:class:`~repro.simulator.capture.CaptureBuffer`.

An exchange runs tens of thousands of times per simulated minute, so
everything in it that does not change between exchanges is computed
once per station: the DIFS base, the basic rate, the responder's ACK,
and the mean received power of every static link (recomputed only
when a position is reassigned; a moving station's own links are
measured per exchange).
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

from repro.dot11.frames import (
    ACK_SIZE,
    CTS_SIZE,
    Dot11Frame,
    FrameSubtype,
    FrameType,
    ack_frame,
    cts_frame,
    rts_frame,
)
from repro.dot11.mac import BROADCAST, MacAddress
from repro.dot11.phy import DSSS_RATES, Phy
from repro.dot11.timing import MacTiming
from repro.simulator.capture import CaptureBuffer
from repro.simulator.channel import ChannelModel, Mobility, Position
from repro.simulator.profiles import (
    BackoffStyle,
    DeviceProfile,
    RateAlgorithm,
    draw_backoff,
)
from repro.simulator.ratecontrol import (
    AarfRateControl,
    ArfRateControl,
    FixedRateControl,
    JitteryRateControl,
    RateControl,
    SnrRateControl,
)
from repro.simulator.traffic import (
    DST_AP,
    DST_BROADCAST,
    DST_MULTICAST,
    DST_PEER,
    AppFrame,
)

#: A multicast group address (01:00:5e…) used for service frames.
MULTICAST_GROUP = MacAddress.parse("01:00:5e:00:00:fb")

# Subtype groups for identity tests: an enum member's ``ftype`` and
# ``value`` are Python-level properties and its hash runs in Python,
# so the exchange path tests membership in tuples instead.
_MANAGEMENT = tuple(st for st in FrameSubtype if st.ftype is FrameType.MANAGEMENT)
_DATA = tuple(st for st in FrameSubtype if st.ftype is FrameType.DATA)
_GROUP_DESTINATIONS = (DST_BROADCAST, DST_MULTICAST)


def build_rate_control(
    profile: DeviceProfile, phy: Phy, channel: ChannelModel, rng: random.Random
) -> RateControl:
    """Instantiate the rate controller a profile declares."""
    algorithm = profile.rate_algorithm
    if algorithm is RateAlgorithm.FIXED_54:
        return FixedRateControl(54.0 if not profile.b_only else 11.0)
    if algorithm is RateAlgorithm.FIXED_11:
        return FixedRateControl(11.0)
    if algorithm is RateAlgorithm.ARF:
        return ArfRateControl(phy, initial_rate=phy.supported_rates[-1])
    if algorithm is RateAlgorithm.AARF:
        return AarfRateControl(phy, initial_rate=phy.supported_rates[-1])
    if algorithm is RateAlgorithm.SNR:
        return SnrRateControl(phy, channel)
    if algorithm is RateAlgorithm.SNR_JITTERY:
        return JitteryRateControl(SnrRateControl(phy, channel), phy, rng)
    raise AssertionError(f"unhandled rate algorithm: {algorithm}")


@dataclass(slots=True)
class ExchangeOutcome:
    """Bookkeeping of one medium access (its captures went to the buffer).

    ``aired`` is the primary frame that actually went on air — the RTS
    when no CTS came back, else the data or management frame —
    whether or not the monitor captured it, so reactive behaviours (an
    AP answering a probe request) can be wired up.
    """

    busy_until_us: float
    dequeued: bool
    aired: Dot11Frame


@dataclass(slots=True)
class _Links:
    """Mean received powers (dBm) of the links an exchange draws over.

    ``peer`` is station → peer (SNR hints and delivery draws),
    ``monitor`` station → monitor and ``peer_monitor`` peer → monitor
    (the responder's CTS/ACK).  A monitor link's signal is its power
    floored at -95 dBm.  ``moving`` links are re-measured per exchange.
    """

    moving: bool
    peer: float
    monitor: float
    monitor_signal: float
    peer_monitor: float
    peer_monitor_signal: float


@dataclass(slots=True)
class StationStats:
    """Per-station transmission counters (useful in tests/benchmarks)."""

    enqueued: int = 0
    transmitted: int = 0
    retries: int = 0
    dropped: int = 0
    collisions: int = 0


class Station:
    """One simulated 802.11 client station (or AP, see subclass)."""

    def __init__(
        self,
        mac: MacAddress,
        profile: DeviceProfile,
        channel_model: ChannelModel,
        network_timing: MacTiming,
        rng: random.Random,
        mobility: Mobility | None = None,
        bssid: MacAddress | None = None,
        encrypted: bool = False,
        channel_number: int = 6,
    ) -> None:
        self.mac = mac
        self.profile = profile
        self.phy = profile.phy()
        self.channel_model = channel_model
        self.rng = rng
        self.mobility = mobility if mobility is not None else Mobility()
        self.bssid = bssid if bssid is not None else BROADCAST
        self.encrypted = encrypted
        self.channel_number = channel_number
        self.queue: deque[AppFrame] = deque()
        self.stats = StationStats()
        # DCF state.
        self.timing = MacTiming(
            slot_us=network_timing.slot_us,
            sifs_us=network_timing.sifs_us,
            cw_min=profile.cw_min,
            cw_max=network_timing.cw_max,
        )
        self.backoff_counter: int | None = None
        self.pending_difs_us: float = 0.0
        self.retry_count = 0
        # Per-unit manufacturing spread: two cards of the same model
        # still differ slightly in radio turnaround calibration.
        self.unit_difs_offset_us = rng.gauss(0.0, 0.7)
        self._difs_base_us = (
            self.timing.difs_us + profile.difs_offset_us + self.unit_difs_offset_us
        )
        self._seq = rng.randint(0, 4000)
        self.rate_control = build_rate_control(profile, self.phy, channel_model, rng)
        # Management and group-addressed frames go at a basic rate.
        self._basic_rate = 1.0 if 1.0 in self.phy.supported_rates else 6.0
        # The responder's ACK to this station is always the same frame.
        self._ack = ack_frame(mac)
        # Positions the exchange draws need; set by the scenario.  For
        # clients the peer is the AP; for an AP it is a nominal client.
        self._links: _Links | None = None
        self._peer_position = Position(0.0, 0.0)
        self._monitor_position = Position(5.0, 5.0)
        # Responder SIFS personality of the AP answering this station is
        # configured by the scenario (affects CTS/ACK gaps we observe).
        self.responder_sifs_offset_us = 0.0

    @property
    def peer_position(self) -> Position:
        """Where the station's peer (its AP, or a nominal client) is."""
        return self._peer_position

    @peer_position.setter
    def peer_position(self, position: Position) -> None:
        self._peer_position = position
        self._links = None

    @property
    def monitor_position(self) -> Position:
        """Where the capturing monitor is."""
        return self._monitor_position

    @monitor_position.setter
    def monitor_position(self, position: Position) -> None:
        self._monitor_position = position
        self._links = None

    # ------------------------------------------------------------------
    # Queue / contention state
    # ------------------------------------------------------------------
    @property
    def wants_medium(self) -> bool:
        """Whether the station is contending for the channel."""
        return bool(self.queue)

    def enqueue(self, app_frame: AppFrame) -> bool:
        """Queue an application frame; returns True if contention must
        (re)start — i.e. the queue was previously empty."""
        self.queue.append(app_frame)
        self.stats.enqueued += 1
        if self.backoff_counter is None:
            self.draw_backoff()
            return True
        return False

    def draw_backoff(self) -> None:
        """Draw a fresh backoff and per-attempt DIFS timing."""
        cw = self.timing.backoff_window(self.retry_count)
        self.backoff_counter = draw_backoff(self.profile.backoff_style, cw, self.rng)
        self.pending_difs_us = self._difs_base_us + self.rng.gauss(
            0.0, self.profile.timing_jitter_us
        )

    def access_time(self, contention_start_us: float) -> float:
        """Earliest transmit time in the current contention round."""
        if self.backoff_counter is None:
            raise RuntimeError(f"{self.mac} has no backoff drawn")
        offset = self.pending_difs_us + self.backoff_counter * self.timing.slot_us
        return contention_start_us + max(offset, 1.0)

    def consume_elapsed_slots(self, idle_until_us: float, contention_start_us: float) -> None:
        """Freeze semantics: deduct slots that elapsed before the medium
        went busy again at ``idle_until_us``."""
        if self.backoff_counter is None or self.backoff_counter <= 0:
            return
        waited = idle_until_us - (contention_start_us + self.pending_difs_us)
        if waited <= 0:
            return
        elapsed = int(waited // self.timing.slot_us)
        self.backoff_counter = max(0, self.backoff_counter - elapsed)

    # ------------------------------------------------------------------
    # Frame construction
    # ------------------------------------------------------------------
    def _next_seq(self) -> int:
        self._seq = (self._seq + 1) % 4096
        return self._seq

    def _destination(self, app_frame: AppFrame) -> MacAddress:
        if app_frame.destination == DST_AP:
            return self.bssid
        if app_frame.destination == DST_PEER:
            peer = app_frame.peer
            if not isinstance(peer, MacAddress):
                raise TypeError(f"peer must be a MacAddress, got {type(peer)!r}")
            return peer
        if app_frame.destination == DST_BROADCAST:
            return BROADCAST
        return MULTICAST_GROUP

    def materialize(self, app_frame: AppFrame, retry: bool) -> Dot11Frame:
        """Build the on-air frame for a queued application frame.

        Non-QoS cards transmit plain Data/Null frames regardless of
        what the application asked for — the QoS-vs-legacy frame-type
        mix is itself part of a card's fingerprint.
        """
        subtype = app_frame.subtype
        if not self.profile.qos_capable:
            if subtype is FrameSubtype.QOS_DATA:
                subtype = FrameSubtype.DATA
            elif subtype is FrameSubtype.QOS_NULL:
                subtype = FrameSubtype.NULL_FUNCTION
        destination = self._destination(app_frame)
        # Only payload-carrying data grows by the CCMP header; null
        # frames have no payload to protect.
        protect = self.encrypted and (
            subtype is FrameSubtype.DATA or subtype is FrameSubtype.QOS_DATA
        )
        size = app_frame.size + (8 if protect else 0)
        is_data = subtype in _DATA
        return Dot11Frame(
            subtype=subtype,
            size=max(size, 28),
            addr1=destination,
            addr2=self.mac,
            addr3=self.bssid,
            retry=retry,
            to_ds=is_data and app_frame.destination == DST_AP,
            from_ds=is_data and app_frame.destination == DST_PEER,
            protected=protect,
            power_mgmt=app_frame.power_mgmt,
            seq=self._next_seq(),
        )

    def data_rate_for(self, app_frame: AppFrame) -> float:
        """Rate selection: management/group frames go at a basic rate,
        unicast data at the rate controller's choice."""
        if (
            app_frame.subtype in _MANAGEMENT
            or app_frame.destination in _GROUP_DESTINATIONS
        ):
            return self._basic_rate
        return self.phy.clamp_rate(self.rate_control.current_rate())

    def control_response_rate(self, data_rate: float) -> float:
        """Rate of CTS/ACK answering a frame sent at ``data_rate``."""
        if data_rate in DSSS_RATES:
            return min(data_rate, 2.0)
        return 24.0 if data_rate >= 24.0 else (12.0 if data_rate >= 12.0 else 6.0)

    # ------------------------------------------------------------------
    # Exchange execution
    # ------------------------------------------------------------------
    def position_at(self, time_us: float) -> Position:
        """Current position (advances the mobility process)."""
        return self.mobility.position_at(time_us, self.rng)

    def _links_at(self, time_us: float) -> _Links:
        """The exchange's link powers: cached for a static station,
        re-measured (advancing the mobility walk) for a moving one."""
        links = self._links
        if links is None or links.moving:
            position = self.position_at(time_us)
            model = self.channel_model
            monitor = model.received_dbm(position.distance_to(self._monitor_position))
            peer_monitor = model.received_dbm(
                self._peer_position.distance_to(self._monitor_position)
            )
            links = self._links = _Links(
                moving=self.mobility.speed_mps > 0,
                peer=model.received_dbm(position.distance_to(self._peer_position)),
                monitor=monitor,
                monitor_signal=max(-95.0, monitor),
                peer_monitor=peer_monitor,
                peer_monitor_signal=max(-95.0, peer_monitor),
            )
        return links

    def _capture(
        self,
        capture: CaptureBuffer,
        end_time_us: float,
        frame: Dot11Frame,
        rate: float,
        received_dbm: float,
        signal_dbm: float,
    ) -> None:
        """The monitor's capture draw for one on-air frame."""
        model = self.channel_model
        if model.monitor_captures(received_dbm, rate, frame.size, self.rng):
            capture.append(end_time_us, frame, rate, signal_dbm, self.channel_number)

    def execute_exchange(
        self, tx_start_us: float, capture: CaptureBuffer
    ) -> ExchangeOutcome:
        """Run a full medium access starting at ``tx_start_us``.

        Handles RTS/CTS when the profile's threshold demands it, the
        data frame, the responder's ACK, channel error draws, retry
        bookkeeping, rate-control feedback and monitor capture draws;
        the frames the monitor decodes are appended to ``capture``.
        """
        if not self.queue:
            raise RuntimeError(f"{self.mac} won arbitration with an empty queue")
        app_frame = self.queue[0]
        frame = self.materialize(app_frame, self.retry_count > 0)
        rate = self.data_rate_for(app_frame)
        links = self._links_at(tx_start_us)
        model = self.channel_model
        rng = self.rng
        airtime = self.phy.airtime_us
        # Any unicast frame is acknowledged; group-addressed frames
        # (broadcast data, probe requests, beacons) are fire-and-forget.
        needs_ack = not frame.addr1.is_multicast
        sifs = self.timing.sifs_us
        responder_sifs = sifs + self.responder_sifs_offset_us
        now = tx_start_us

        # SNR hint for rate control (driver channel estimation).
        self.rate_control.on_snr_hint(model.snr_db(links.peer, rng))

        threshold = self.profile.rts_threshold
        if needs_ack and threshold is not None and frame.size > threshold:
            data_air = airtime(frame.size, rate)
            ctl_rate = self.control_response_rate(rate)
            cts_air = airtime(CTS_SIZE, ctl_rate)
            ack_air = airtime(ACK_SIZE, ctl_rate)
            nav = round(3 * sifs + cts_air + data_air + ack_air)
            rts = rts_frame(self.mac, frame.addr1, nav)
            rts_end = now + airtime(rts.size, ctl_rate)
            self._capture(
                capture, rts_end, rts, ctl_rate, links.monitor, links.monitor_signal
            )
            if not model.frame_succeeds(links.peer, ctl_rate, rts.size, rng):
                # No CTS: the sender times out and recontends.
                self._on_failure()
                return ExchangeOutcome(rts_end + sifs + cts_air, False, rts)
            cts = cts_frame(self.mac, max(0, nav - round(sifs + cts_air)))
            cts_end = rts_end + responder_sifs + cts_air
            self._capture(
                capture,
                cts_end,
                cts,
                ctl_rate,
                links.peer_monitor,
                links.peer_monitor_signal,
            )
            now = cts_end + sifs
        # Data (or management/null) frame itself.
        data_end = now + airtime(frame.size, rate)
        self._capture(
            capture, data_end, frame, rate, links.monitor, links.monitor_signal
        )

        if not needs_ack:
            # Group-addressed / management-broadcast: fire and forget.
            self._on_success()
            return ExchangeOutcome(data_end, True, frame)

        ctl_rate = self.control_response_rate(rate)
        if not model.frame_succeeds(links.peer, rate, frame.size, rng):
            self._on_failure()
            return ExchangeOutcome(
                data_end + sifs + airtime(ACK_SIZE, ctl_rate), False, frame
            )
        ack = self._ack
        ack_end = data_end + responder_sifs + airtime(ack.size, ctl_rate)
        self._capture(
            capture,
            ack_end,
            ack,
            ctl_rate,
            links.peer_monitor,
            links.peer_monitor_signal,
        )
        self._on_success()
        return ExchangeOutcome(ack_end, True, frame)

    def execute_collision_leg(self, tx_start_us: float) -> float:
        """This station's part of a collision: its frame airs but is
        unreceivable.  Returns the air end time."""
        if not self.queue:
            raise RuntimeError(f"{self.mac} collided with an empty queue")
        app_frame = self.queue[0]
        frame = self.materialize(app_frame, self.retry_count > 0)
        rate = self.data_rate_for(app_frame)
        unicast = not frame.addr1.is_multicast
        use_rts = (
            unicast
            and self.profile.rts_threshold is not None
            and frame.size > self.profile.rts_threshold
        )
        size = 20 if use_rts else frame.size
        ctl_rate = self.control_response_rate(rate)
        air = self.phy.airtime_us(size, ctl_rate if use_rts else rate)
        self.stats.collisions += 1
        if unicast:
            self._on_failure()
        else:
            # Group frames are never retried: the loss is silent.
            self._on_success()
        return tx_start_us + air

    # ------------------------------------------------------------------
    # Outcome bookkeeping
    # ------------------------------------------------------------------
    def _on_success(self) -> None:
        self.queue.popleft()
        self.retry_count = 0
        self.stats.transmitted += 1
        self.rate_control.on_result(True)
        self.backoff_counter = None
        if self.queue:
            self.draw_backoff()

    def _on_failure(self) -> None:
        self.retry_count += 1
        self.stats.retries += 1
        self.rate_control.on_result(False)
        if self.retry_count > self.profile.retry_limit:
            self.queue.popleft()
            self.retry_count = 0
            self.stats.dropped += 1
        self.backoff_counter = None
        if self.queue:
            self.draw_backoff()
