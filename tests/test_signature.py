"""Unit tests for signature construction (Definition 1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dot11.mac import MacAddress
from repro.core.parameters import FrameSize, InterArrivalTime
from repro.core.signature import Signature, SignatureBlock, SignatureBuilder
from repro.dot11.frames import FrameSubtype
from repro.traces.table import FrameTable
from tests.conftest import make_data_capture

A = MacAddress.parse("00:13:e8:00:00:0a")
B = MacAddress.parse("00:18:f8:00:00:0b")
AP = MacAddress.parse("00:0f:b5:00:00:01")


def _frames(sender, count, start=0.0, gap=1000.0, subtype=FrameSubtype.QOS_DATA, size=500):
    return [
        make_data_capture(start + i * gap, sender, AP, size=size, subtype=subtype)
        for i in range(count)
    ]


def _build(builder, frames):
    """The builder's signatures of a hand-built frame list."""
    return builder.build_table(FrameTable.from_frames(frames))


class TestMinimumObservations:
    def test_below_threshold_omitted(self):
        builder = SignatureBuilder(FrameSize(), min_observations=50)
        signatures = _build(builder, _frames(A, 49))
        assert A not in signatures

    def test_at_threshold_included(self):
        builder = SignatureBuilder(FrameSize(), min_observations=50)
        signatures = _build(builder, _frames(A, 50))
        assert A in signatures

    def test_threshold_counts_kept_observations(self):
        # Inter-arrival yields n-1 observations for n frames.
        builder = SignatureBuilder(InterArrivalTime(), min_observations=50)
        assert A not in _build(builder, _frames(A, 50))
        assert A in _build(builder, _frames(A, 51))

    def test_validation(self):
        with pytest.raises(ValueError):
            SignatureBuilder(FrameSize(), min_observations=0)


class TestWeights:
    def test_weights_reflect_frame_type_mix(self):
        frames = _frames(A, 30, subtype=FrameSubtype.QOS_DATA) + _frames(
            A, 70, start=1e6, subtype=FrameSubtype.PROBE_REQUEST, size=120
        )
        builder = SignatureBuilder(FrameSize(), min_observations=50)
        signature = _build(builder, frames)[A]
        assert signature.weight("QoS Data") == pytest.approx(0.3)
        assert signature.weight("Probe Request") == pytest.approx(0.7)

    def test_weights_sum_to_one(self):
        frames = _frames(A, 40) + _frames(A, 25, start=1e6, subtype=FrameSubtype.DATA)
        builder = SignatureBuilder(FrameSize(), min_observations=50)
        signature = _build(builder, frames)[A]
        assert sum(signature.weights.values()) == pytest.approx(1.0)

    def test_absent_type_weight_zero(self):
        signature = _build(
            SignatureBuilder(FrameSize(), min_observations=10),
            _frames(A, 20)
        )[A]
        assert signature.weight("Beacon") == 0.0


class TestHistogramContent:
    def test_histograms_normalised(self):
        signature = _build(
            SignatureBuilder(FrameSize(), min_observations=10),
            _frames(A, 20, size=500) + _frames(A, 20, start=1e6, size=1500)
        )[A]
        histogram = signature.histogram("QoS Data")
        assert histogram is not None
        assert histogram.sum() == pytest.approx(1.0)

    def test_distinct_sizes_in_distinct_bins(self):
        signature = _build(
            SignatureBuilder(FrameSize(), min_observations=10),
            _frames(A, 10, size=100) + _frames(A, 10, start=1e6, size=2000)
        )[A]
        histogram = signature.histogram("QoS Data")
        assert (histogram > 0).sum() == 2

    def test_per_device_separation(self):
        frames = sorted(
            _frames(A, 30, size=100) + _frames(B, 30, start=500.0, size=2000),
            key=lambda c: c.timestamp_us,
        )
        signatures = _build(SignatureBuilder(FrameSize(), min_observations=10), frames)
        assert set(signatures) == {A, B}
        hist_a = signatures[A].histogram("QoS Data")
        hist_b = signatures[B].histogram("QoS Data")
        assert (hist_a * hist_b).sum() == pytest.approx(0.0)  # disjoint bins


class TestSignatureValidation:
    def test_mismatched_keys_rejected(self):
        import numpy as np

        with pytest.raises(ValueError):
            Signature(histograms={"Data": np.zeros(4)}, weights={})

    def test_negative_weight_rejected(self):
        import numpy as np

        with pytest.raises(ValueError):
            Signature(
                histograms={"Data": np.zeros(4)}, weights={"Data": -0.1}
            )

    def test_total_observations(self):
        signature = _build(
            SignatureBuilder(FrameSize(), min_observations=10),
            _frames(A, 25)
        )[A]
        assert signature.total_observations == 25
        assert signature.frame_types == {"QoS Data"}


class TestSignatureBlock:
    """The Definition 1 read-out both builders share."""

    def test_definition_1(self):
        counts = np.array([[[1, 3, 0], [0, 0, 4]]], dtype=np.int64)
        block = SignatureBlock(
            [A], ["Beacon", "Data"], counts, np.array([[4, 4]]), np.array([[0, 1]])
        )
        signature = block[A]
        assert list(signature.histograms) == ["Beacon", "Data"]
        assert signature.histograms["Beacon"].tolist() == [0.25, 0.75, 0.0]
        assert signature.histograms["Data"].tolist() == [0.0, 0.0, 1.0]
        assert signature.weights == {"Beacon": 0.5, "Data": 0.5}
        assert signature.observation_counts == {"Beacon": 4, "Data": 4}

    def test_order_is_first_seen_order_and_empty_types_left_out(self):
        counts = np.array([[[0.0, 2.0], [0.0, 0.0], [1.0, 0.0]]])
        block = SignatureBlock(
            [A], ["Data", "Beacon", "Probe"], counts, np.array([[2.0, 0.0, 1.0]]),
            np.array([[2, 1, 0]]),
        )
        signature = block[A]
        assert list(signature.histograms) == ["Probe", "Data"]
        assert list(signature.weights) == ["Probe", "Data"]
        assert signature.weights["Data"] == 2.0 / 3.0
        assert signature.observation_counts == {"Probe": 1, "Data": 2}

    def test_integer_and_float_counts_read_out_alike(self):
        """Batch counts are int64, streaming counts float64: the same
        integers give bit-identical signatures."""
        counts = np.array([[[3, 0, 7], [1, 1, 1]]], dtype=np.int64)
        totals, first_seen = np.array([[10, 3]]), np.array([[1, 0]])
        batch = SignatureBlock([A], ["a", "b"], counts, totals, first_seen)[A]
        streaming = SignatureBlock(
            [A], ["a", "b"], counts.astype(float), totals.astype(float), first_seen
        )[A]
        assert list(batch.histograms) == list(streaming.histograms) == ["b", "a"]
        for key in ("a", "b"):
            assert np.array_equal(batch.histograms[key], streaming.histograms[key])
        assert batch.weights == streaming.weights
        assert batch.observation_counts == streaming.observation_counts

    def test_histogram_rows_are_padded_per_frame_type(self):
        """The matcher's view: one row per device and frame type some
        device shows, zero where a device lacks it."""
        counts = np.array(
            [[[2, 2], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 5]]], dtype=np.int64
        )
        block = SignatureBlock(
            [A, B], ["x", "y", "z"], counts, counts.sum(axis=2), np.zeros((2, 3), int)
        )
        assert list(block.histograms) == ["x", "z"]
        assert block.histograms["x"].tolist() == [[0.5, 0.5], [0.0, 0.0]]
        assert block.histograms["z"].tolist() == [[0.0, 0.0], [0.0, 1.0]]
        assert block[A].weights == {"x": 1.0} and block[B].weights == {"z": 1.0}

    def test_histogram_rows_equal_each_read_out_bit_for_bit(self):
        """The one division for the whole block gives every device's
        read-out histogram, and a zero row where it lacks the type."""
        rng = np.random.default_rng(26)
        counts = rng.integers(0, 9, size=(6, 4, 7)).astype(np.float64)
        counts[rng.random((6, 4)) < 0.4] = 0.0
        counts[:, 3] = 0.0  # a frame type no device shows
        devices = [MacAddress(value) for value in range(1, 6)]
        block = SignatureBlock(
            devices, ["a", "b", "c", "d"], counts, counts.sum(axis=2),
            np.zeros((6, 4), int), rows=np.array([5, 0, 3, 1, 2]),
        )
        histograms = block.histograms
        assert "d" not in histograms
        for i, device in enumerate(devices):
            read_out = block[device].histograms
            for key, rows in histograms.items():
                expected = read_out.get(key, np.zeros(7))
                assert np.array_equal(rows[i], expected)

    def test_read_out_owns_its_histograms(self):
        counts = np.array([[[1, 3]]], dtype=np.int64)
        block = SignatureBlock([A], ["x"], counts, np.array([[4]]), np.array([[0]]))
        histogram = block[A].histograms["x"]
        assert not np.shares_memory(histogram, block.counts)
        assert B not in block and block.get(B) is None
        assert list(block) == [A] and len(block) == 1

    def test_rows_pick_each_devices_counts(self):
        """A builder hands over its arrays with the gated rows' indices."""
        counts = np.array([[[1, 1]], [[9, 9]], [[0, 4]]], dtype=np.int64)
        block = SignatureBlock(
            [B, A], ["x"], counts, counts.sum(axis=2), np.zeros((3, 1), int),
            rows=np.array([2, 0]),
        )
        assert block[B].histograms["x"].tolist() == [0.0, 1.0]
        assert block[A].histograms["x"].tolist() == [0.5, 0.5]
        assert block.histograms["x"].tolist() == [[0.0, 1.0], [0.5, 0.5]]
        assert list(dict(block.items())) == [B, A]
