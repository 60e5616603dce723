#!/usr/bin/env python3
"""MAC-spoof detection at a hot-spot (paper Section VII-B1).

An access point allow-lists two paying client stations by MAC address.
An attacker with a different wireless card steals a victim's session by
spoofing its MAC.  The AP's fingerprint check notices that the traffic
behind the victim's address no longer matches its learnt signature.

Run:  python examples/spoof_detection.py
"""

from __future__ import annotations

import sys

from repro.applications import SpoofDetector, SpoofVerdict, spoof_mac
from repro.simulator import CbrTraffic, Scenario, StationSpec, WebTraffic
from repro.traces import FrameTable


def main() -> int:
    # --- The hot-spot: two legitimate clients, one attacker ----------
    scenario = Scenario(duration_s=150.0, seed=29, encrypted=False)
    scenario.add_station(
        StationSpec(
            name="customer-1",
            profile="intel-2200bg-linux",
            sources=[CbrTraffic(interval_ms=10), WebTraffic(mean_think_s=3.0)],
        )
    )
    scenario.add_station(
        StationSpec(
            name="customer-2",
            profile="apple-bcm4321-osx",
            sources=[WebTraffic(mean_think_s=2.0)],
        )
    )
    scenario.add_station(
        StationSpec(
            name="attacker",
            profile="realtek-rtl8187-linux",
            sources=[CbrTraffic(interval_ms=12)],
        )
    )
    result = scenario.run()
    macs = {name: mac for mac, name in result.station_names.items()}
    victim = macs["customer-1"]
    attacker = macs["attacker"]
    print(f"victim:   {victim} (intel-2200bg-linux)")
    print(f"attacker: {attacker} (realtek-rtl8187-linux)")

    # --- Learning stage (clean, user-initiated) ----------------------
    boundary_us = 75e6
    capture = result.table()
    training = capture.slice_us(0.0, boundary_us)
    detector = SpoofDetector(min_observations=50)
    allowed = {victim, macs["customer-2"]}
    learnt = detector.learn(training, allowed)
    print(f"\nlearning stage: {len(learnt)} allow-listed devices fingerprinted")

    # --- Scene 1: normal operation -----------------------------------
    live = capture.slice_us(boundary_us, float("inf"))
    print("\n[scene 1] normal operation:")
    normal = detector.check_window(live)
    for check in normal:
        print(
            f"  {check.device}: {check.verdict.value:12s} "
            f"self-sim {check.self_similarity:.3f}"
        )

    # --- Scene 2: the attacker takes over the victim's MAC ----------
    # The attack rewrites frame objects; its capture is interned again.
    victim_gone = [
        c
        for c in result.captures
        if c.timestamp_us >= boundary_us and (c.sender is None or c.sender != victim)
    ]
    hijacked = FrameTable.from_frames(spoof_mac(victim_gone, attacker, victim))
    print("\n[scene 2] attacker spoofs the victim's MAC:")
    alarms = 0
    attacked = detector.check_window(hijacked)
    for check in attacked:
        print(
            f"  {check.device}: {check.verdict.value:12s} "
            f"self-sim {check.self_similarity:.3f}"
        )
        alarms += check.verdict is SpoofVerdict.SPOOFED
    print(f"\n{alarms} spoofing alarm(s) raised" if alarms else "\nno alarm (!)")

    # The outcome these scenes give: both customers genuine in normal
    # operation, the victim spoofed once the attacker takes its MAC.
    genuine = {c.device for c in normal if c.verdict is SpoofVerdict.GENUINE}
    spoofed = {c.device for c in attacked if c.verdict is SpoofVerdict.SPOOFED}
    return 0 if allowed <= genuine and victim in spoofed else 1


if __name__ == "__main__":
    sys.exit(main())
