#!/usr/bin/env python3
"""The paper's tool workflow on standard pcap files (Section V-C).

Simulates an office dataset, writes it as a radiotap pcap (the format a
real monitor-mode capture produces), then runs the learning and
detection phases purely from the on-disk file — interchangeable with a
capture from a real wireless card.

Run:  python examples/pcap_workflow.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.core import (
    DetectionConfig,
    InterArrivalTime,
    ReferenceDatabase,
    SignatureBuilder,
)
from repro.core.detection import (
    evaluate_identification,
    evaluate_similarity,
    extract_window_candidates,
)
from repro.traces import Trace
from repro.traces.datasets import _spec, build_dataset


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro-pcap-"))
    pcap_path = workdir / "office-small.pcap"

    # --- Produce a monitor capture on disk ---------------------------
    spec = _spec("office2", scale=0.25)
    trace = build_dataset(spec)
    count = trace.to_pcap(pcap_path)
    size_kib = pcap_path.stat().st_size / 1024
    print(f"wrote {count} frames ({size_kib:.0f} KiB) to {pcap_path}")

    # --- Reload it as a third party would -----------------------------
    loaded = Trace.from_pcap(pcap_path, name="office-small", encrypted=True)
    print(f"reloaded {len(loaded)} frames, {len(loaded.senders())} senders")

    # --- Learning + detection straight from the pcap ------------------
    config = DetectionConfig(window_s=120.0, min_observations=50)
    builder = SignatureBuilder(InterArrivalTime(), min_observations=50)
    split = loaded.split(training_s=spec.training_s * 0.25)
    database = ReferenceDatabase.from_training_table(builder, split.training.table())
    candidates = extract_window_candidates(split.validation, builder, database, config)
    similarity = evaluate_similarity(candidates, database, config)
    identification = evaluate_identification(candidates, database, config)

    print(f"\nreference devices: {len(database)}")
    print(f"candidate signatures: {len(candidates)}")
    print(f"similarity-test AUC: {similarity.auc:.3f}")
    print(f"identification ratio @ FPR 0.1: "
          f"{identification.ratio_at_fpr(0.1):.3f}")
    print(f"\n(the same file works with the CLI: "
          f"repro-80211 evaluate {pcap_path} --training-s "
          f"{spec.training_s * 0.25:.0f} --window-s 120)")


if __name__ == "__main__":
    main()
