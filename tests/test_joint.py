"""Tests for joint (2-D) histogram signatures."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.database import ReferenceDatabase
from repro.core.detection import DetectionConfig, extract_window_candidates
from repro.core.histogram import Histogram, UniformBins
from repro.core.joint import JointBins, JointParameter
from repro.core.parameters import ALL_PARAMETERS
from repro.core.signature import SignatureBuilder
from repro.dot11.frames import FrameSubtype
from repro.dot11.mac import MacAddress
from repro.traces.table import FrameTable
from tests import oracles
from tests.conftest import make_data_capture

A = MacAddress.parse("00:13:e8:00:00:0a")
AP = MacAddress.parse("00:0f:b5:00:00:01")


def assert_identical(expected: dict, actual: dict) -> None:
    """Same devices, frame types, bins, weights and counts, in order."""
    assert list(expected) == list(actual)
    for device, signature in expected.items():
        other = actual[device]
        assert list(signature.histograms) == list(other.histograms)
        for key, histogram in signature.histograms.items():
            assert np.array_equal(histogram, other.histograms[key])
        assert signature.weights == other.weights
        assert signature.observation_counts == other.observation_counts


class TestJointBins:
    def test_bin_count_is_product(self):
        joint = JointBins(
            x_bins=UniformBins(lo=0, hi=100, width=10),
            y_bins=UniformBins(lo=0, hi=30, width=10),
        )
        assert joint.bin_count == 30

    def test_index_many_reads_flattened_bin(self):
        joint = JointBins(
            x_bins=UniformBins(lo=0, hi=100, width=10),
            y_bins=UniformBins(lo=0, hi=30, width=10),
        )
        flat = 5 * 3 + 2  # x bin 5, y bin 2
        values = [float(flat), -1.0, 30.0, 0.0, 29.0, 31.0]
        assert joint.index_many(np.array(values)).tolist() == [flat, -1, -1, 0, 29, -1]
        assert [
            -1 if index is None else index
            for index in (oracles.bin_index(joint, value) for value in values)
        ] == [flat, -1, -1, 0, 29, -1]
        assert joint.bin_label(flat) == "[50,60)×[20,30)"

    def test_dropped_component_drops_pair(self):
        """A pair with a side its bins discard is dropped before
        assembly: it neither counts nor sets the first-seen order."""
        stamps = [1000.0, 6000.0, 6300.0, 6600.0]  # 5000 µs gap: dropped
        subtypes = [
            FrameSubtype.QOS_DATA,
            FrameSubtype.BEACON,
            FrameSubtype.QOS_DATA,
            FrameSubtype.BEACON,
        ]
        frames = [
            make_data_capture(t, A, AP, subtype=subtype)
            for t, subtype in zip(stamps, subtypes)
        ]
        parameter = JointParameter("interarrival", "size")
        table = FrameTable.from_frames(frames)
        observed = parameter.observe_table(table)
        assert observed.positions.tolist() == [2, 3]
        signature = SignatureBuilder(parameter, min_observations=1).build_table(table)[A]
        assert list(signature.histograms) == ["QoS Data", "Beacon"]
        assert signature.observation_counts == {"QoS Data": 1, "Beacon": 1}


class TestJointParameter:
    def test_validation(self):
        with pytest.raises(KeyError):
            JointParameter("size", "entropy")
        with pytest.raises(ValueError):
            JointParameter("size", "size")

    def test_table_memory_is_the_larger_of_the_components(self):
        assert JointParameter("size", "rate").table_memory == 0
        assert JointParameter("size", "access").table_memory == 1
        assert JointParameter("interarrival", "txtime").table_memory == 1

    def test_size_rate_joint_extraction(self):
        frames = [
            make_data_capture(1000.0 * i, A, AP, size=500, rate=54.0)
            for i in range(10)
        ]
        parameter = JointParameter("size", "rate")
        observed = parameter.observe_table(FrameTable.from_frames(frames))
        assert len(observed.values) == 10
        histogram = Histogram(parameter.default_bins())
        assert histogram.add_array(observed.values) == 10
        # All identical pairs land in one joint bin.
        assert (histogram.frequencies() > 0).sum() == 1

    @pytest.mark.parametrize(
        "x, y",
        list(itertools.permutations([p.name for p in ALL_PARAMETERS], 2)),
        ids=lambda name: name,
    )
    def test_build_matches_oracle(self, small_office_trace, x, y):
        """Columnar joint signatures equal the per-frame oracle's, dict
        order included, for all 20 ordered pairs."""
        builder = SignatureBuilder(JointParameter(x, y), min_observations=1)
        expected = oracles.build(builder, small_office_trace.frames)
        assert expected
        assert_identical(expected, builder.build_table(small_office_trace.table()))

    @pytest.mark.parametrize("x, y", [("interarrival", "size"), ("rate", "access")])
    def test_window_candidates_match_oracle(self, small_office_trace, x, y):
        """The whole-trace window slices skip each window's first row
        for a pair reading the channel clock (``table_memory``), as
        per-window extraction does."""
        builder = SignatureBuilder(JointParameter(x, y), min_observations=10)
        split = small_office_trace.split(30.0)
        database = ReferenceDatabase.from_training_table(
            builder, split.training.table()
        )
        config = DetectionConfig(window_s=10.0, min_observations=10)
        validation = split.validation
        expected = oracles.window_candidates(validation, builder, database, config)
        actual = extract_window_candidates(validation, builder, database, config)
        assert expected
        assert [(c.device, c.window_index) for c in expected] == [
            (c.device, c.window_index) for c in actual
        ]
        for reference, candidate in zip(expected, actual):
            assert oracles.similarities(reference) == oracles.similarities(candidate)

    def test_joint_separates_what_marginals_confuse(self):
        """Two devices with identical size AND inter-arrival marginals
        but opposite correlation are separable only jointly."""
        from repro.core.similarity import cosine_similarity

        # Device A: small frames after short gaps, big after long.
        # Device B: the opposite pairing. Marginals: 50/50 either way.
        frames_a, frames_b = [], []
        t_a = t_b = 0.0
        for i in range(60):
            short_gap = i % 2 == 0
            gap = 300.0 if short_gap else 1500.0
            t_a += gap
            frames_a.append(
                make_data_capture(t_a, A, AP, size=100 if short_gap else 1500)
            )
            t_b += gap
            frames_b.append(
                make_data_capture(t_b, A, AP, size=1500 if short_gap else 100)
            )
        joint = JointParameter("interarrival", "size")
        builder = SignatureBuilder(joint, min_observations=10)
        sig_a = builder.build_table(FrameTable.from_frames(frames_a))[A]
        sig_b = builder.build_table(FrameTable.from_frames(frames_b))[A]
        joint_sim = cosine_similarity(
            sig_a.histograms["QoS Data"], sig_b.histograms["QoS Data"]
        )
        assert joint_sim < 0.1  # jointly near-disjoint

        # The size marginal alone cannot tell them apart.
        from repro.core.parameters import FrameSize

        size_builder = SignatureBuilder(FrameSize(), min_observations=10)
        size_a = size_builder.build_table(FrameTable.from_frames(frames_a))[A]
        size_b = size_builder.build_table(FrameTable.from_frames(frames_b))[A]
        size_sim = cosine_similarity(
            size_a.histograms["QoS Data"], size_b.histograms["QoS Data"]
        )
        assert size_sim > 0.95

    def test_pipeline_integration(self, small_office_trace):
        """Joint signatures run through the standard evaluation."""
        from repro.core.detection import DetectionConfig
        from repro.core.pipeline import evaluate_trace

        result = evaluate_trace(
            small_office_trace,
            JointParameter("interarrival", "size"),
            training_s=30.0,
            config=DetectionConfig(window_s=15.0),
        )
        assert result.auc > 0.7
