"""The four canonical evaluation traces (Table I analogues).

The paper evaluates on the Sigcomm'08 monitor capture (7 h and its
first hour) and two self-recorded office traces (7 h / 1 h, WPA).
Neither real capture can ship here, so these builders synthesise the
closest simulation analogues (DESIGN.md §2):

* **conference** — many devices, arrival/departure churn, mobility
  (changing SNR → rate switching), several APs, bursty web traffic;
  unencrypted, like the Sigcomm trace;
* **office** — fewer devices, static, strong links, encrypted (WPA),
  steadier traffic with heavier downloads.

Default sizes are *time-scaled* (≈50 min / ≈25 min instead of 7 h /
1 h) so the benchmark suite runs in minutes; the ``scale`` knob grows
device count and duration proportionally towards paper scale.  The
train/candidate split ratios follow the paper (first ~1/6 of a long
trace, first 1/3 of a short one).

Traces are deterministic per (kind, scale, seed) and memoised, since
several benchmarks share them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.simulator.channel import ChannelModel
from repro.simulator.profiles import PROFILE_LIBRARY
from repro.simulator.scenario import Scenario, StationSpec
from repro.simulator.traffic import (
    ArpProbeService,
    CbrTraffic,
    IgmpService,
    KeepAliveService,
    LlmnrService,
    MdnsService,
    SsdpService,
    WebTraffic,
)
from repro.traces.trace import Trace


@dataclass(frozen=True)
class DatasetSpec:
    """Shape of one canonical dataset."""

    name: str
    duration_s: float
    training_s: float
    device_count: int
    encrypted: bool
    mobile: bool
    churn: bool
    area_m: float
    ap_count: int
    seed: int

    @property
    def candidate_s(self) -> float:
        """Validation portion length."""
        return self.duration_s - self.training_s


def _spec(name: str, scale: float) -> DatasetSpec:
    """Materialise a canonical spec at a given scale."""
    base = {
        "conference1": DatasetSpec(
            name="conference1",
            duration_s=3000.0,
            training_s=600.0,
            device_count=34,
            encrypted=False,
            mobile=True,
            churn=True,
            area_m=80.0,
            ap_count=3,
            seed=101,
        ),
        "conference2": DatasetSpec(
            name="conference2",
            duration_s=1500.0,
            training_s=500.0,
            device_count=22,
            encrypted=False,
            mobile=True,
            churn=True,
            area_m=80.0,
            ap_count=3,
            seed=202,
        ),
        "office1": DatasetSpec(
            name="office1",
            duration_s=3000.0,
            training_s=600.0,
            device_count=22,
            encrypted=True,
            mobile=False,
            churn=False,
            area_m=30.0,
            ap_count=1,
            seed=303,
        ),
        "office2": DatasetSpec(
            name="office2",
            duration_s=1500.0,
            training_s=500.0,
            device_count=15,
            encrypted=True,
            mobile=False,
            churn=False,
            area_m=30.0,
            ap_count=1,
            seed=404,
        ),
    }[name]
    if scale == 1.0:
        return base
    return DatasetSpec(
        name=base.name,
        duration_s=base.duration_s * scale,
        training_s=base.training_s * scale,
        device_count=max(2, int(base.device_count * scale)),
        encrypted=base.encrypted,
        mobile=base.mobile,
        churn=base.churn,
        area_m=base.area_m,
        ap_count=base.ap_count,
        seed=base.seed,
    )


def _traffic_mix(rng: random.Random, office: bool) -> list:
    """A plausible per-device application/service mix."""
    sources: list = []
    roll = rng.random()
    if office and roll < 0.35:
        # Heavy user: sustained transfer.
        sources.append(
            CbrTraffic(
                # Common MTU/MSS variants seen across stacks.
                payload=rng.choice([1470, 1460, 1400]),
                interval_ms=rng.uniform(40, 140),
            )
        )
    # The web mix is a common application; the small-request size takes
    # one of a few typical values (OS/browser dependent), so devices
    # overlap but are not artificially identical.
    sources.append(
        WebTraffic(
            mean_think_s=rng.uniform(4, 20) if not office else rng.uniform(6, 30),
            mean_burst_frames=rng.uniform(6, 24),
            small_size=rng.choice([80, 88, 96, 104]),
        )
    )
    service_pool = [
        SsdpService(period_s=rng.uniform(25, 40), burst_size=rng.randint(2, 4)),
        LlmnrService(mean_period_s=rng.uniform(30, 70)),
        MdnsService(period_s=rng.uniform(45, 90)),
        IgmpService(period_s=rng.uniform(118, 130)),
        ArpProbeService(mean_period_s=rng.uniform(25, 60)),
        KeepAliveService(period_s=rng.uniform(12, 30), size=rng.choice([64, 70, 78])),
    ]
    rng.shuffle(service_pool)
    for source in service_pool[: rng.randint(1, 3)]:
        sources.append(source)
    return sources


def build_dataset(spec: DatasetSpec) -> Trace:
    """Simulate one canonical dataset into a :class:`Trace`."""
    rng = random.Random(spec.seed)
    if spec.mobile:
        # Conference hall: attendees roam across a large area, so link
        # quality (and thus rates) drifts per window and the monitor
        # misses distant high-rate frames — the paper's "changing
        # wireless conditions".
        channel = ChannelModel(
            path_loss_exponent=3.4,
            shadowing_sigma_db=3.0,
            tx_power_dbm=15.0,
        )
    else:
        # Office: static stations behind walls — stable links whose
        # quality (and converged rate) differs per device position.
        channel = ChannelModel(
            path_loss_exponent=4.0,
            shadowing_sigma_db=1.2,
            tx_power_dbm=10.0,
        )
    scenario = Scenario(
        duration_s=spec.duration_s,
        seed=spec.seed,
        encrypted=spec.encrypted,
        area_m=spec.area_m,
        channel_model=channel,
        ap_count=spec.ap_count,
    )
    for index in range(spec.device_count):
        profile = PROFILE_LIBRARY[index % len(PROFILE_LIBRARY)]
        arrival_s = 0.0
        departure_s: float | None = None
        if spec.churn:
            # Some devices arrive late or leave early, like conference
            # attendees; everyone overlaps the training window a bit.
            if rng.random() < 0.4:
                arrival_s = rng.uniform(0.0, spec.duration_s * 0.3)
            if rng.random() < 0.3:
                departure_s = rng.uniform(spec.duration_s * 0.6, spec.duration_s)
        # Conference attendees relocate between sessions: long parked
        # periods at one spot, then a walk to another — so a device's
        # training-period link quality says little about its validation
        # windows (the paper's "devices often change location").
        speed = rng.uniform(0.8, 1.5) if spec.mobile else 0.0
        downlink = []
        if not spec.mobile and rng.random() < 0.5:
            downlink = [
                WebTraffic(
                    mean_think_s=rng.uniform(6, 25),
                    mean_burst_frames=rng.uniform(10, 30),
                )
            ]
        scenario.add_station(
            StationSpec(
                name=f"{spec.name}-dev-{index:03d}",
                profile=profile,
                sources=_traffic_mix(rng, office=not spec.mobile),
                downlink=downlink,
                arrival_s=arrival_s,
                departure_s=departure_s,
                speed_mps=speed,
                pause_s=rng.uniform(400.0, 1000.0) if spec.mobile else 30.0,
            )
        )
    return scenario.run().trace(name=spec.name, encrypted=spec.encrypted)


_CACHE: dict[tuple[str, float], Trace] = {}


def _cached(name: str, scale: float) -> Trace:
    key = (name, scale)
    if key not in _CACHE:
        _CACHE[key] = build_dataset(_spec(name, scale))
    return _CACHE[key]


def clear_dataset_cache() -> None:
    """Drop memoised datasets (tests use this for isolation)."""
    _CACHE.clear()


def conference_trace(which: int = 1, scale: float = 1.0) -> Trace:
    """Conference 1 (long) or 2 (short) analogue."""
    if which not in (1, 2):
        raise ValueError(f"conference trace must be 1 or 2, got {which}")
    return _cached(f"conference{which}", scale)


def office_trace(which: int = 1, scale: float = 1.0) -> Trace:
    """Office 1 (long) or 2 (short) analogue."""
    if which not in (1, 2):
        raise ValueError(f"office trace must be 1 or 2, got {which}")
    return _cached(f"office{which}", scale)


def paper_datasets(scale: float = 1.0) -> dict[str, tuple[Trace, float]]:
    """All four canonical traces with their training durations.

    Returns ``{name: (trace, training_s)}`` in the paper's column
    order (Conf. 1, Conf. 2, Office 1, Office 2).
    """
    return {
        "conference1": (conference_trace(1, scale), _spec("conference1", scale).training_s),
        "conference2": (conference_trace(2, scale), _spec("conference2", scale).training_s),
        "office1": (office_trace(1, scale), _spec("office1", scale).training_s),
        "office2": (office_trace(2, scale), _spec("office2", scale).training_s),
    }
