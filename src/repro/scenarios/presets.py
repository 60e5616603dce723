"""The bundled scenario presets.

Eight named environments spanning the workload axes the paper never
reached: density (lecture hall), sparse machine traffic (IoT swarm),
co-channel interference (overlapping BSSs), the MAC-randomisation
countermeasure (crowd), mobility with churn (commuters), power-save
signalling diversity (fleet), and sustained media load (video floor).
``office-baseline`` reproduces the repo's original fixed-seed office
fixture bit-for-bit, so the golden numbers pinned since PR 3 anchor
the whole matrix.

Every preset is deterministic per (duration, seed, scale): station
composition, traffic mixes and explicit MACs are all drawn from one
``random.Random(seed)``.  ``scale`` grows/shrinks the station count
(never below two stations) so the same scenario shape serves both the
CI smoke matrix and large sweeps.
"""

from __future__ import annotations

import dataclasses
import random

from repro.dot11.mac import vendor_mac
from repro.simulator.channel import ChannelModel
from repro.simulator.profiles import (
    PROFILE_LIBRARY,
    PowerSaveBehaviour,
    profile_by_name,
)
from repro.simulator.scenario import Scenario, StationSpec
from repro.simulator.traffic import (
    ArpProbeService,
    CbrTraffic,
    KeepAliveService,
    MdnsService,
    SsdpService,
    WebTraffic,
)
from repro.scenarios.library import scenario_preset


def _count(base: int, scale: float) -> int:
    """Scaled station count, floored at two devices."""
    return max(2, int(round(base * scale)))


@scenario_preset(
    name="office-baseline",
    description="The original 3-station encrypted office fixture "
    "(fixed seed 5) whose evaluation numbers are golden-pinned.",
    duration_s=90.0,
    seed=5,
)
def _office_baseline(duration_s: float, seed: int, scale: float) -> Scenario:
    # Deliberately ignores ``scale``: this preset exists to reproduce
    # the historical golden scenario exactly (tests/conftest.py).
    scenario = Scenario(duration_s=duration_s, seed=seed, encrypted=True)
    scenario.add_station(
        StationSpec(
            name="alice",
            profile="intel-2200bg-linux",
            sources=[CbrTraffic(interval_ms=30)],
        )
    )
    scenario.add_station(
        StationSpec(
            name="bob",
            profile="broadcom-4318-win",
            sources=[WebTraffic(mean_think_s=3.0)],
        )
    )
    scenario.add_station(
        StationSpec(
            name="carol",
            profile="atheros-ar5212-madwifi",
            sources=[CbrTraffic(interval_ms=60)],
        )
    )
    return scenario


@scenario_preset(
    name="lecture-hall",
    description="Dense static audience on one AP; many devices share "
    "a chipset, separable only through their traffic mix.",
    duration_s=120.0,
    seed=1102,
    window_s=20.0,
)
def _lecture_hall(duration_s: float, seed: int, scale: float) -> Scenario:
    rng = random.Random(seed)
    scenario = Scenario(
        duration_s=duration_s,
        seed=seed,
        encrypted=False,
        area_m=35.0,
        ap_count=1,
        channel_model=ChannelModel(
            path_loss_exponent=3.0, shadowing_sigma_db=2.0, tx_power_dbm=15.0
        ),
    )
    for index in range(_count(16, scale)):
        # A handful of laptop models dominate a lecture hall.
        profile = PROFILE_LIBRARY[index % 5]
        sources: list = [
            WebTraffic(
                mean_think_s=rng.uniform(3, 12),
                mean_burst_frames=rng.uniform(8, 26),
                small_size=rng.choice([80, 88, 96, 104]),
            )
        ]
        if rng.random() < 0.4:
            sources.append(
                KeepAliveService(
                    period_s=rng.uniform(10, 25), size=rng.choice([64, 70, 78])
                )
            )
        if rng.random() < 0.3:
            sources.append(MdnsService(period_s=rng.uniform(40, 80)))
        scenario.add_station(
            StationSpec(
                name=f"seat-{index:03d}", profile=profile, sources=sources
            )
        )
    return scenario


@scenario_preset(
    name="iot-swarm",
    description="Sparse periodic telemetry from cheap fixed-rate "
    "sensor chipsets; long inter-burst gaps, tiny payloads.",
    duration_s=150.0,
    seed=2203,
    window_s=30.0,
)
def _iot_swarm(duration_s: float, seed: int, scale: float) -> Scenario:
    rng = random.Random(seed)
    sensor_profiles = (
        "ralink-rt2500-linux",
        "realtek-rtl8187-linux",
        "realtek-rtl8180-b-only",
        "ralink-rt73-win",
        "samsung-mobile",
    )
    scenario = Scenario(
        duration_s=duration_s,
        seed=seed,
        encrypted=True,
        area_m=50.0,
        ap_count=1,
    )
    for index in range(_count(14, scale)):
        profile = profile_by_name(sensor_profiles[index % len(sensor_profiles)])
        sources: list = [
            CbrTraffic(
                payload=rng.choice([96, 128, 160, 220]),
                interval_ms=rng.uniform(200, 500),
                jitter_ms=rng.uniform(2, 15),
            ),
            KeepAliveService(
                period_s=rng.uniform(5, 15), size=rng.choice([60, 64, 72])
            ),
        ]
        if rng.random() < 0.35:
            sources.append(ArpProbeService(mean_period_s=rng.uniform(20, 50)))
        scenario.add_station(
            StationSpec(
                name=f"sensor-{index:03d}", profile=profile, sources=sources
            )
        )
    return scenario


@scenario_preset(
    name="overlapping-bss",
    description="Three co-channel BSSs contending for one medium; "
    "stations are homed across APs and hear each other's traffic.",
    duration_s=120.0,
    seed=3304,
    window_s=20.0,
)
def _co_channel_bss(duration_s: float, seed: int, scale: float) -> Scenario:
    rng = random.Random(seed)
    scenario = Scenario(
        duration_s=duration_s,
        seed=seed,
        encrypted=False,
        area_m=90.0,
        ap_count=3,
        channel_model=ChannelModel(
            path_loss_exponent=3.2, shadowing_sigma_db=2.5, tx_power_dbm=16.0
        ),
    )
    for index in range(_count(12, scale)):
        profile = PROFILE_LIBRARY[index % len(PROFILE_LIBRARY)]
        sources: list = [
            WebTraffic(
                mean_think_s=rng.uniform(4, 15),
                mean_burst_frames=rng.uniform(8, 22),
            )
        ]
        if rng.random() < 0.5:
            sources.append(
                CbrTraffic(
                    payload=rng.choice([512, 768, 1024]),
                    interval_ms=rng.uniform(40, 120),
                )
            )
        scenario.add_station(
            StationSpec(
                name=f"bss-dev-{index:03d}", profile=profile, sources=sources
            )
        )
    return scenario


@scenario_preset(
    name="mac-randomizing-crowd",
    description="Roaming devices presenting locally-administered "
    "random MACs; identity only recoverable from MAC-layer behaviour.",
    duration_s=120.0,
    seed=4405,
    window_s=20.0,
)
def _mac_randomizing_crowd(duration_s: float, seed: int, scale: float) -> Scenario:
    rng = random.Random(seed)
    scenario = Scenario(
        duration_s=duration_s,
        seed=seed,
        encrypted=False,
        area_m=70.0,
        ap_count=2,
        channel_model=ChannelModel(
            path_loss_exponent=3.3, shadowing_sigma_db=2.5, tx_power_dbm=15.0
        ),
    )
    for index in range(_count(14, scale)):
        profile = PROFILE_LIBRARY[index % len(PROFILE_LIBRARY)]
        # The hardware identity stays per-profile; the *presented*
        # address is a fresh locally-administered one (countermeasure
        # the tracker application links back, DESIGN.md §4).
        hardware = vendor_mac(profile.oui, 0x100 + index)
        scenario.add_station(
            StationSpec(
                name=f"walker-{index:03d}",
                profile=profile,
                mac=hardware.randomized(rng),
                sources=[
                    WebTraffic(
                        mean_think_s=rng.uniform(5, 18),
                        mean_burst_frames=rng.uniform(6, 18),
                    )
                ],
                speed_mps=rng.uniform(0.6, 1.6),
                pause_s=rng.uniform(15, 60),
            )
        )
    return scenario


@scenario_preset(
    name="mobile-commuters",
    description="Devices arriving, roaming across a large area and "
    "leaving early — churn plus link-quality drift.",
    duration_s=150.0,
    seed=5506,
    window_s=25.0,
)
def _mobile_commuters(duration_s: float, seed: int, scale: float) -> Scenario:
    rng = random.Random(seed)
    scenario = Scenario(
        duration_s=duration_s,
        seed=seed,
        encrypted=False,
        area_m=100.0,
        ap_count=2,
        channel_model=ChannelModel(
            path_loss_exponent=3.4, shadowing_sigma_db=3.0, tx_power_dbm=15.0
        ),
    )
    for index in range(_count(12, scale)):
        profile = PROFILE_LIBRARY[index % len(PROFILE_LIBRARY)]
        arrival_s = rng.uniform(0.0, duration_s * 0.3) if rng.random() < 0.5 else 0.0
        departure_s = (
            rng.uniform(duration_s * 0.6, duration_s)
            if rng.random() < 0.4
            else None
        )
        scenario.add_station(
            StationSpec(
                name=f"commuter-{index:03d}",
                profile=profile,
                sources=[
                    WebTraffic(
                        mean_think_s=rng.uniform(4, 14),
                        mean_burst_frames=rng.uniform(8, 20),
                    ),
                    KeepAliveService(
                        period_s=rng.uniform(10, 25),
                        size=rng.choice([64, 70, 78]),
                    ),
                ],
                arrival_s=arrival_s,
                departure_s=departure_s,
                speed_mps=rng.uniform(0.9, 2.4),
                pause_s=rng.uniform(10, 40),
            )
        )
    return scenario


@scenario_preset(
    name="power-save-fleet",
    description="A fleet of sleepy clients with mixed power-save "
    "cadences; null-frame signalling dominates the air.",
    duration_s=150.0,
    seed=6607,
    window_s=30.0,
)
def _power_save_fleet(duration_s: float, seed: int, scale: float) -> Scenario:
    rng = random.Random(seed)
    ps_profiles = (
        "intel-2200bg-linux",
        "intel-3945abg-win",
        "broadcom-4318-win",
        "broadcom-43224-osx",
        "ralink-rt73-win",
        "apple-bcm4321-osx",
        "samsung-mobile",
    )
    scenario = Scenario(
        duration_s=duration_s,
        seed=seed,
        encrypted=True,
        area_m=40.0,
        ap_count=1,
    )
    for index in range(_count(12, scale)):
        base = profile_by_name(ps_profiles[index % len(ps_profiles)])
        # Same chipset, different configured sleep cadence — the
        # per-device texture Figure 8 isolates.
        profile = dataclasses.replace(
            base,
            power_save=PowerSaveBehaviour(
                enabled=True,
                period_ms=rng.uniform(140, 520),
                period_jitter_ms=rng.uniform(8, 80),
                wake_gap_ms=rng.uniform(4, 18),
            ),
        )
        sources: list = [
            WebTraffic(
                mean_think_s=rng.uniform(8, 25),
                mean_burst_frames=rng.uniform(4, 12),
            )
        ]
        if rng.random() < 0.4:
            sources.append(SsdpService(period_s=rng.uniform(25, 40)))
        scenario.add_station(
            StationSpec(
                name=f"sleeper-{index:03d}", profile=profile, sources=sources
            )
        )
    return scenario


@scenario_preset(
    name="video-floor",
    description="Few stations streaming sustained video downlink with "
    "small uplink feedback — a heavy, steady medium load.",
    duration_s=90.0,
    seed=7708,
)
def _video_floor(duration_s: float, seed: int, scale: float) -> Scenario:
    rng = random.Random(seed)
    scenario = Scenario(
        duration_s=duration_s,
        seed=seed,
        encrypted=True,
        area_m=30.0,
        ap_count=1,
    )
    for index in range(_count(6, scale)):
        profile = PROFILE_LIBRARY[(index * 3) % len(PROFILE_LIBRARY)]
        scenario.add_station(
            StationSpec(
                name=f"screen-{index:03d}",
                profile=profile,
                sources=[
                    # Uplink: player feedback / TCP acks.
                    CbrTraffic(
                        payload=rng.choice([92, 108, 124]),
                        interval_ms=rng.uniform(25, 45),
                    )
                ],
                downlink=[
                    # Downlink: the stream itself.
                    CbrTraffic(
                        payload=rng.choice([1400, 1460, 1470]),
                        interval_ms=rng.uniform(16, 28),
                        jitter_ms=rng.uniform(0.5, 3.0),
                    )
                ],
            )
        )
    return scenario
