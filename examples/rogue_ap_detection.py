#!/usr/bin/env python3
"""Rogue access-point detection (paper Section VII-B2).

A hot-spot operator publishes the signature of its genuine AP.  Later,
an attacker stands up a rogue AP (AirSnarf-style) broadcasting the same
identity from different hardware.  The client's routine fingerprint
check — restricted to the AP's *own* frames, excluding forwarded data,
as the paper prescribes — flags the mismatch.

Run:  python examples/rogue_ap_detection.py
"""

from __future__ import annotations

import sys

from repro.applications import RogueApDetector, spoof_mac
from repro.core import FrameSize
from repro.simulator import CbrTraffic, Scenario, StationSpec, WebTraffic
from repro.traces import FrameTable


def _run_hotspot(ap_profile: str, beacon_size: int, seed: int):
    scenario = Scenario(
        duration_s=120.0,
        seed=seed,
        ap_profile=ap_profile,
        ap_beacon_size=beacon_size,
    )
    scenario.add_station(
        StationSpec(
            name="guest",
            profile="intel-2200bg-linux",
            sources=[CbrTraffic(interval_ms=5), WebTraffic(mean_think_s=2.0)],
            downlink=[WebTraffic(mean_think_s=1.5, mean_burst_frames=18)],
        )
    )
    result = scenario.run()
    ap = next(mac for mac, name in result.station_names.items() if name == "ap-0")
    return result, ap


def main() -> int:
    # The genuine hot-spot AP, captured during installation.
    genuine, genuine_ap = _run_hotspot(
        "atheros-ar9285-ath9k", beacon_size=180, seed=61
    )
    print(f"genuine AP: {genuine_ap} (atheros-ar9285-ath9k, 180-byte beacons)")

    detector = RogueApDetector(parameter=FrameSize(), min_observations=50)
    half = 60e6
    assert detector.learn(genuine.table().slice_us(0.0, half), genuine_ap)
    print("operator published the AP's signature (learning stage)")

    # Routine check against the genuine AP.
    routine = detector.check(
        genuine.table().slice_us(half, float("inf")), genuine_ap
    )
    print(
        f"\n[later, same AP]      similarity {routine.similarity:.3f} "
        f"-> {'ROGUE!' if routine.is_rogue else 'genuine'}"
    )

    # An attacker impersonates the AP with different hardware and a
    # slightly different beacon IE set.
    rogue, rogue_ap = _run_hotspot(
        "broadcom-4318-win", beacon_size=212, seed=62
    )
    # The impersonation rewrites frame objects; its capture is interned.
    impersonated = FrameTable.from_frames(
        spoof_mac(rogue.captures, rogue_ap, genuine_ap)
    )
    impostor = detector.check(impersonated, genuine_ap)
    print(
        f"[rogue AP, same MAC]  similarity {impostor.similarity:.3f} "
        f"-> {'ROGUE!' if impostor.is_rogue else 'genuine'}"
    )
    # The outcome this scene gives: the genuine AP accepted, the
    # impostor flagged.
    return 0 if not routine.is_rogue and impostor.is_rogue else 1


if __name__ == "__main__":
    sys.exit(main())
