#!/usr/bin/env python3
"""Quickstart: simulate a small office, fingerprint its devices.

Simulates three client stations with different wireless cards on an
encrypted (WPA) network, captures the channel with a monitor, learns
reference signatures from the first 40 seconds and then identifies
every device in 20-second detection windows — the paper's workflow in
miniature.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import sys

from repro.core import (
    DetectionConfig,
    InterArrivalTime,
    ReferenceDatabase,
    SignatureBuilder,
    extract_window_candidates,
)
from repro.simulator import CbrTraffic, Scenario, StationSpec, WebTraffic


def main() -> int:
    # --- 1. Simulate an encrypted office network --------------------
    scenario = Scenario(duration_s=120.0, seed=11, encrypted=True)
    scenario.add_station(
        StationSpec(
            name="video-laptop",
            profile="intel-2200bg-linux",
            sources=[CbrTraffic(interval_ms=20)],  # streaming-like load
        )
    )
    scenario.add_station(
        StationSpec(
            name="browsing-laptop",
            profile="broadcom-4318-win",
            sources=[WebTraffic(mean_think_s=4.0)],
        )
    )
    scenario.add_station(
        StationSpec(
            name="background-netbook",
            profile="atheros-ar5212-madwifi",
            sources=[CbrTraffic(interval_ms=60), WebTraffic(mean_think_s=8.0)],
        )
    )
    trace = scenario.run().trace(name="quickstart-office", encrypted=True)
    print(f"captured {len(trace)} frames over {trace.duration_s:.0f}s "
          f"from {len(trace.senders())} senders")

    # --- 2. Learning phase: build the reference database ------------
    builder = SignatureBuilder(InterArrivalTime(), min_observations=50)
    split = trace.split(training_s=40.0)
    database = ReferenceDatabase.from_training_table(builder, split.training.table())
    print(f"learnt {len(database)} reference signatures:")
    for device in database:
        print(f"  {device}  ({trace.device_names.get(device, '?')})")

    # --- 3. Detection phase: identify devices per window ------------
    # Every window's candidates are matched in one batch; each keeps its
    # row of the score matrix, and `best` is the row's first maximum.
    config = DetectionConfig(window_s=20.0, min_observations=50)
    correct = total = 0
    for candidate in extract_window_candidates(
        split.validation, builder, database, config
    ):
        device = candidate.device
        if device not in database:
            continue
        winner, score = candidate.best
        verdict = "ok " if winner == device else "MISS"
        total += 1
        correct += winner == device
        print(
            f"window {candidate.window_index}: "
            f"{trace.device_names.get(device, device)} "
            f"-> {trace.device_names.get(winner, winner)} "
            f"(similarity {score:.3f}) [{verdict}]"
        )
    print(f"\nidentification accuracy: {correct}/{total} "
          f"({100 * correct / max(total, 1):.0f}%)")
    # The outcome this scenario gives: every device identified.
    return 0 if correct == total == 9 else 1


if __name__ == "__main__":
    sys.exit(main())
