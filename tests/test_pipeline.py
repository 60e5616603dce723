"""Integration tests for the end-to-end pipeline and fusion."""

from __future__ import annotations

import pytest

from repro.core import (
    DetectionConfig,
    FrameSize,
    InterArrivalTime,
    TransmissionTime,
)
from repro.core.fusion import FusionMatcher
from repro.core.pipeline import evaluate_all_parameters, evaluate_trace


class TestEvaluateTrace:
    def test_small_office_interarrival(self, small_office_trace):
        result = evaluate_trace(
            small_office_trace,
            InterArrivalTime(),
            training_s=30.0,
            config=DetectionConfig(window_s=15.0),
        )
        assert result.reference_devices >= 3
        assert result.auc > 0.8  # three distinct profiles: easy setting
        assert 0.0 <= result.identification_at(0.1) <= 1.0

    def test_all_parameters(self, small_office_trace):
        config = DetectionConfig(window_s=15.0)
        results = evaluate_all_parameters(small_office_trace, 30.0, config)
        assert set(results) == {"rate", "size", "access", "txtime", "interarrival"}
        for result in results.values():
            assert 0.0 <= result.auc <= 1.0

    def test_result_reports_trace_name(self, small_office_trace):
        result = evaluate_trace(
            small_office_trace, FrameSize(), training_s=30.0,
            config=DetectionConfig(window_s=15.0),
        )
        assert result.trace_name == "small-office"


class TestFusion:
    def test_learn_and_identify(self, small_office_trace):
        split = small_office_trace.split(30.0)
        fusion = FusionMatcher(
            parameters=[InterArrivalTime(), TransmissionTime()],
            min_observations=30,
        )
        fusion.learn(split.training.table())
        assert len(fusion.devices) >= 3
        correct = 0
        total = 0
        for window in split.validation.windows(15.0):
            fused = fusion.extract(window.table())
            known = [device for device in fused if device in fusion.devices]
            winners = fusion.identify([fused[device] for device in known])
            for device, (winner, score) in zip(known, winners):
                total += 1
                correct += winner == device
                assert 0.0 <= score <= 1.0 + 1e-9
        assert total > 0
        assert correct / total > 0.7

    def test_weights_normalised(self):
        fusion = FusionMatcher(
            parameters=[InterArrivalTime(), FrameSize()],
            weights={"interarrival": 3.0, "size": 1.0},
        )
        assert fusion.weights["interarrival"] == pytest.approx(0.75)
        assert fusion.weights["size"] == pytest.approx(0.25)

    def test_missing_weight_rejected(self):
        with pytest.raises(ValueError):
            FusionMatcher(
                parameters=[InterArrivalTime(), FrameSize()],
                weights={"interarrival": 1.0},
            )

    def test_empty_parameters_rejected(self):
        with pytest.raises(ValueError):
            FusionMatcher(parameters=[])

    def test_match_before_learn_rejected(self, small_office_trace):
        fusion = FusionMatcher(parameters=[InterArrivalTime()])
        fused = fusion.extract(small_office_trace.table())
        with pytest.raises(RuntimeError):
            fusion.match(list(fused.values()))
