"""Scenario assembly and the simulation driver.

A :class:`Scenario` turns declarative :class:`StationSpec` entries into
a wired simulation: stations with their profiles, driver-level services
(power save, probe scanning) derived from those profiles, application
traffic sources, one or more APs, a monitor position, and the shared
medium.  ``run()`` executes the event loop and returns the monitor's
capture — the exact artefact the fingerprinting layer consumes — as a
columnar table interned while the simulation ran; ``stream()`` hands
out the same columns chunk by chunk as simulated time advances.  Frame
objects are built only for callers that ask for them.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from repro.dot11.capture import CapturedFrame
from repro.dot11.frames import Dot11Frame
from repro.dot11.mac import MacAddress, vendor_mac
from repro.dot11.timing import TIMING_BG_MIXED, MacTiming
from repro.simulator.ap import AccessPoint
from repro.simulator.capture import Capture
from repro.simulator.channel import ChannelModel, Mobility, Position
from repro.simulator.device import Station
from repro.simulator.events import EventQueue
from repro.simulator.medium import Medium
from repro.simulator.profiles import DeviceProfile, profile_by_name
from repro.simulator.traffic import PowerSaveService, ProbeScanService, TrafficSource

if TYPE_CHECKING:
    from repro.traces.table import FrameTable
    from repro.traces.trace import Trace


@dataclass
class StationSpec:
    """Declarative description of one simulated client station.

    ``profile`` may be a profile object or a library name.  ``sources``
    carry the station's *application* traffic; driver-level behaviours
    (power-save nulls, probe scans) are derived from the profile unless
    ``auto_services`` is disabled.  ``downlink`` sources are attached
    to the AP with this station as peer (models download traffic).
    """

    name: str
    profile: DeviceProfile | str
    sources: list[TrafficSource] = field(default_factory=list)
    downlink: list[TrafficSource] = field(default_factory=list)
    arrival_s: float = 0.0
    departure_s: float | None = None
    speed_mps: float = 0.0
    pause_s: float = 30.0
    auto_services: bool = True
    mac: MacAddress | None = None

    def resolved_profile(self) -> DeviceProfile:
        """The concrete device profile for this spec."""
        if isinstance(self.profile, DeviceProfile):
            return self.profile
        return profile_by_name(self.profile)


@dataclass(slots=True)
class SimulationResult:
    """Output of one scenario run.

    ``capture`` holds the monitor's capture as columns, interned while
    the simulation ran; :attr:`captures` builds the
    :class:`~repro.dot11.capture.CapturedFrame` objects only when it is
    first read.
    """

    capture: Capture
    station_names: dict[MacAddress, str]
    duration_s: float
    exchange_count: int
    collision_rounds: int
    _captures: list[CapturedFrame] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def frame_count(self) -> int:
        """Number of frames the monitor captured."""
        return len(self.capture)

    def table(self) -> FrameTable:
        """The capture as a columnar
        :class:`~repro.traces.table.FrameTable`."""
        return self.capture.table

    @property
    def captures(self) -> list[CapturedFrame]:
        """The capture as frame objects, built on first read."""
        if self._captures is None:
            self._captures = self.capture.frames()
        return self._captures

    def trace(self, name: str = "", encrypted: bool = False) -> Trace:
        """The capture as a ground-truth :class:`~repro.traces.trace.Trace`
        over :meth:`table`, whose frames are built only if read."""
        from repro.traces.trace import Trace

        return Trace(
            self.table(),
            lambda: self.captures,
            name=name,
            encrypted=encrypted,
            device_names=self.station_names,
        )


class Scenario:
    """A complete single-channel 802.11 environment to simulate."""

    def __init__(
        self,
        duration_s: float,
        seed: int = 7,
        encrypted: bool = False,
        area_m: float = 40.0,
        channel_model: ChannelModel | None = None,
        timing: MacTiming = TIMING_BG_MIXED,
        channel_number: int = 6,
        ap_count: int = 1,
        ap_profile: DeviceProfile | str = "atheros-ar9285-ath9k",
        ap_beacon_size: int = 170,
        ap_probe_response_size: int = 260,
    ) -> None:
        if not duration_s > 0:
            raise ValueError(f"duration must be positive: {duration_s}")
        if ap_count < 0:
            raise ValueError(f"ap_count must be >= 0: {ap_count}")
        self.duration_s = duration_s
        self.seed = seed
        self.encrypted = encrypted
        self.area_m = area_m
        self.channel_model = channel_model if channel_model is not None else ChannelModel()
        self.timing = timing
        self.channel_number = channel_number
        self.ap_count = ap_count
        self.ap_profile = ap_profile
        self.ap_beacon_size = ap_beacon_size
        self.ap_probe_response_size = ap_probe_response_size
        self.specs: list[StationSpec] = []

    def add_station(self, spec: StationSpec) -> None:
        """Register one client station spec.

        Explicit MAC collisions are rejected here — at construction —
        rather than surfacing as two stations silently sharing an
        identity deep inside the event loop.
        """
        if spec.mac is not None:
            for existing in self.specs:
                if existing.mac is not None and existing.mac == spec.mac:
                    raise ValueError(
                        f"station {spec.name!r}: MAC {spec.mac} already "
                        f"assigned to station {existing.name!r}"
                    )
        self.specs.append(spec)

    def validate(self) -> None:
        """Check the assembled scenario is runnable, before wiring.

        Raises :class:`ValueError` for specs that would otherwise fail
        (or silently misbehave) deep inside the event loop: no stations
        at all, duplicate station names or MACs, departure before
        arrival, negative arrival times.  The scenario library calls
        this on every preset it builds.
        """
        if not self.specs:
            raise ValueError("scenario has no stations")
        names: dict[str, StationSpec] = {}
        macs: dict[MacAddress, StationSpec] = {}
        for spec in self.specs:
            if spec.name in names:
                raise ValueError(f"duplicate station name: {spec.name!r}")
            names[spec.name] = spec
            if spec.mac is not None:
                if spec.mac in macs:
                    raise ValueError(
                        f"station {spec.name!r}: MAC {spec.mac} already "
                        f"assigned to station {macs[spec.mac].name!r}"
                    )
                macs[spec.mac] = spec
            if spec.arrival_s < 0:
                raise ValueError(
                    f"station {spec.name!r}: negative arrival {spec.arrival_s}"
                )
            if spec.departure_s is not None and spec.departure_s < spec.arrival_s:
                raise ValueError(
                    f"station {spec.name!r}: departure before arrival"
                )

    # ------------------------------------------------------------------
    def _profile_services(
        self, profile: DeviceProfile
    ) -> list[TrafficSource]:
        """Driver-level traffic implied by the profile."""
        services: list[TrafficSource] = [
            ProbeScanService(
                period_s=profile.probes.period_s,
                period_jitter_s=profile.probes.period_jitter_s,
                burst_size=profile.probes.burst_size,
                intra_burst_gap_ms=profile.probes.intra_burst_gap_ms,
                probe_size=profile.probes.probe_size,
            )
        ]
        if profile.power_save.enabled:
            services.append(
                PowerSaveService(
                    period_ms=profile.power_save.period_ms,
                    period_jitter_ms=profile.power_save.period_jitter_ms,
                    wake_gap_ms=profile.power_save.wake_gap_ms,
                    qos_null=profile.qos_capable,
                )
            )
        return services

    def run(self) -> SimulationResult:
        """Build the simulation, run it, and return the capture."""
        queue, medium, station_names = self._wire()
        queue.run_until(self.duration_s * 1e6)
        return SimulationResult(
            capture=medium.capture.finish(),
            station_names=station_names,
            duration_s=self.duration_s,
            exchange_count=medium.exchange_count,
            collision_rounds=medium.collision_rounds,
        )

    def stream(self, chunk_s: float = 5.0) -> Iterator[FrameTable]:
        """Run the simulation incrementally, yielding table chunks live.

        The event loop advances ``chunk_s`` of simulated time at a
        time and the monitor's capture buffer is drained into a
        :class:`~repro.traces.table.FrameTable` after every step that
        captured a frame, so the generator is a chunked source for
        :meth:`~repro.streaming.engine.StreamEngine.run_chunked` that
        never holds the full trace — the simulator acts as a live
        traffic feed.  The chunks' columns, concatenated, equal
        :meth:`run`'s table (same seed, same event schedule, same
        interner); each chunk carries the intern tuples as they stand
        when it is drained.
        """
        if not chunk_s > 0:
            raise ValueError(f"chunk size must be positive: {chunk_s}")
        queue, medium, _station_names = self._wire()
        duration_us = self.duration_s * 1e6
        chunk_us = chunk_s * 1e6
        previous_us = -1.0
        now = 0.0
        while now < duration_us:
            now = min(now + chunk_us, duration_us)
            queue.run_until(now)
            if medium.capture.rows:
                chunk = medium.capture.drain(previous_us)
                previous_us = chunk.end_us
                yield chunk

    def _wire(self) -> tuple[EventQueue, Medium, dict[MacAddress, str]]:
        """Assemble the event queue, medium, stations and traffic."""
        master_rng = random.Random(self.seed)
        queue = EventQueue()
        medium = Medium(queue)
        duration_us = self.duration_s * 1e6
        monitor_position = Position(self.area_m / 2, self.area_m / 2)
        station_names: dict[MacAddress, str] = {}

        # --- Access points -------------------------------------------
        aps: list[AccessPoint] = []
        for index in range(self.ap_count):
            ap_profile = (
                self.ap_profile
                if isinstance(self.ap_profile, DeviceProfile)
                else profile_by_name(self.ap_profile)
            )
            ap_mac = vendor_mac("00:0f:b5", 0x0A0000 + index)
            ap_rng = random.Random(master_rng.getrandbits(64))
            angle_step = self.area_m / (self.ap_count + 1)
            ap = AccessPoint(
                mac=ap_mac,
                profile=ap_profile,
                channel_model=self.channel_model,
                network_timing=self.timing,
                rng=ap_rng,
                position=Position(angle_step * (index + 1), self.area_m / 2),
                beacon_size=self.ap_beacon_size + 20 * index,
                probe_response_size=self.ap_probe_response_size,
                encrypted=self.encrypted,
                channel_number=self.channel_number,
            )
            ap.monitor_position = monitor_position
            station_names[ap_mac] = f"ap-{index}"
            aps.append(ap)

        def hook(sender: Station, frame: Dot11Frame, end_us: float) -> None:
            for ap in aps:
                if ap.on_frame_aired(sender, frame, end_us):
                    medium.join(ap, end_us)

        if aps:
            medium.aired_hooks.append(hook)

        # --- Client stations ------------------------------------------
        serial = 1
        stations: list[tuple[Station, StationSpec]] = []
        for spec in self.specs:
            profile = spec.resolved_profile()
            mac = spec.mac if spec.mac is not None else vendor_mac(profile.oui, serial)
            serial += 1
            rng = random.Random(master_rng.getrandbits(64))
            mobility = Mobility(
                area_m=self.area_m,
                speed_mps=spec.speed_mps,
                pause_s=spec.pause_s,
                _position=Position(
                    rng.uniform(0, self.area_m), rng.uniform(0, self.area_m)
                ),
            )
            home_ap = aps[serial % len(aps)] if aps else None
            station = Station(
                mac=mac,
                profile=profile,
                channel_model=self.channel_model,
                network_timing=self.timing,
                rng=rng,
                mobility=mobility,
                bssid=home_ap.mac if home_ap else None,
                encrypted=self.encrypted,
                channel_number=self.channel_number,
            )
            station.monitor_position = monitor_position
            if home_ap is not None:
                station.peer_position = home_ap.position_at(0.0)
                station.responder_sifs_offset_us = home_ap.profile.sifs_offset_us
            station_names[mac] = spec.name
            stations.append((station, spec))

        # --- Traffic wiring -------------------------------------------
        def schedule_source(
            target: Station, source: TrafficSource, arrival_us: float, departure_us: float
        ) -> None:
            source_rng = random.Random(master_rng.getrandbits(64))
            first = arrival_us + source.start_delay_us(source_rng)

            def poll() -> None:
                now = queue.now
                if now > departure_us:
                    return
                frames, next_time = source.next_burst(now, source_rng)
                must_join = False
                for app_frame in frames:
                    must_join = target.enqueue(app_frame) or must_join
                if must_join:
                    medium.join(target, now)
                if next_time <= now:
                    next_time = now + 1000.0
                if next_time <= departure_us and next_time <= duration_us:
                    queue.schedule(next_time, poll)

            if first <= departure_us and first <= duration_us:
                queue.schedule(first, poll)

        for ap in aps:
            schedule_source(ap, ap.beacons, 0.0, duration_us)

        for station, spec in stations:
            arrival_us = spec.arrival_s * 1e6
            departure_us = (
                spec.departure_s * 1e6 if spec.departure_s is not None else duration_us
            )
            if departure_us < arrival_us:
                raise ValueError(
                    f"station {spec.name}: departure before arrival"
                )
            all_sources = list(spec.sources)
            if spec.auto_services:
                all_sources.extend(self._profile_services(station.profile))
            for source in all_sources:
                schedule_source(station, copy.deepcopy(source), arrival_us, departure_us)
            home_ap = aps[0] if aps else None
            if home_ap is not None:
                for source in spec.downlink:
                    # Downlink traffic: the AP transmits to this client.
                    downlink = copy.deepcopy(source)
                    peer_source = _PeerWrapper(downlink, station.mac)
                    schedule_source(home_ap, peer_source, arrival_us, departure_us)

        return queue, medium, station_names


class _PeerWrapper:
    """Redirect a traffic source's AP-bound frames to a specific peer."""

    def __init__(self, inner: TrafficSource, peer: MacAddress) -> None:
        self._inner = inner
        self._peer = peer

    def start_delay_us(self, rng: random.Random) -> float:
        return self._inner.start_delay_us(rng)

    def next_burst(self, now_us: float, rng: random.Random):
        frames, next_time = self._inner.next_burst(now_us, rng)
        for app_frame in frames:
            if app_frame.destination == "ap":
                app_frame.destination = "peer"
                app_frame.peer = self._peer
        return frames, next_time
