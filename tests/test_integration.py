"""End-to-end integration: simulate → pcap → learn → detect.

Exercises the full paper workflow across module boundaries, including
the on-disk pcap round trip in the middle (the paper's tool operates
on pcap files).
"""

from __future__ import annotations

import pytest

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
from repro.core.pipeline import evaluate_trace
from repro.traces.trace import Trace


class TestFullWorkflow:
    def test_simulate_pcap_learn_detect(self, small_office_trace, tmp_path):
        # Persist the capture and reload it, as a real deployment would.
        path = tmp_path / "monitor.pcap"
        small_office_trace.to_pcap(path)
        trace = Trace.from_pcap(path, name="reloaded", encrypted=True)
        assert len(trace) == len(small_office_trace)

        config = DetectionConfig(window_s=15.0, min_observations=50)
        builder = SignatureBuilder(InterArrivalTime(), min_observations=50)
        split = trace.split(training_s=30.0)
        database = ReferenceDatabase.from_training_table(
            builder, split.training.table()
        )
        assert len(database) >= 3

        candidates = extract_window_candidates(
            split.validation, builder, database, config
        )
        assert candidates

        similarity = evaluate_similarity(candidates, database, config)
        identification = evaluate_identification(candidates, database, config)
        assert similarity.auc > 0.8
        assert identification.ratio_at_fpr(0.5) > 0.5

    def test_pcap_and_memory_paths_agree(self, small_office_trace, tmp_path):
        """Fingerprinting a reloaded pcap gives the same AUC as the
        in-memory trace (timestamps round to integer µs on disk)."""
        path = tmp_path / "same.pcap"
        small_office_trace.to_pcap(path)
        reloaded = Trace.from_pcap(path, encrypted=True)
        config = DetectionConfig(window_s=15.0)
        in_memory = evaluate_trace(
            small_office_trace, InterArrivalTime(), 30.0, config
        )
        on_disk = evaluate_trace(reloaded, InterArrivalTime(), 30.0, config)
        assert on_disk.auc == pytest.approx(in_memory.auc, abs=0.02)
        assert on_disk.reference_devices == in_memory.reference_devices

    def test_reference_devices_stable_across_parameters(self, small_office_trace):
        """The min-observation rule depends only on attributed frame
        counts for count-per-frame parameters, so rate/size/txtime see
        identical reference populations."""
        from repro.core import FrameSize, TransmissionRate, TransmissionTime

        split = small_office_trace.split(30.0)
        populations = []
        for parameter in (TransmissionRate(), FrameSize(), TransmissionTime()):
            builder = SignatureBuilder(parameter, min_observations=50)
            populations.append(frozenset(builder.build_table(split.training.table())))
        assert populations[0] == populations[1] == populations[2]
