"""Cross-cutting property-based tests over module boundaries."""

from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.database import ReferenceDatabase
from repro.core.matcher import batch_match_signatures
from repro.core.parameters import ALL_PARAMETERS, FrameSize
from repro.core.signature import SignatureBuilder
from repro.dot11.capture import CapturedFrame
from repro.dot11.frames import Dot11Frame, FrameSubtype
from repro.dot11.mac import MacAddress, vendor_mac
from repro.dot11.phy import ALL_RATES
from repro.radiotap.pcap import read_trace_pcap, write_trace_pcap
from repro.traces.table import FrameTable

SENDERS = [vendor_mac("00:13:e8", i) for i in range(1, 4)]
AP = vendor_mac("00:0f:b5", 1)


@st.composite
def capture_sequences(draw):
    """Random, time-ordered attributable frame sequences."""
    count = draw(st.integers(min_value=2, max_value=60))
    frames = []
    t = 0.0
    for _ in range(count):
        t += draw(st.floats(min_value=10.0, max_value=5000.0))
        sender = draw(st.sampled_from(SENDERS))
        size = draw(st.integers(min_value=40, max_value=2000))
        rate = draw(st.sampled_from(ALL_RATES))
        subtype = draw(
            st.sampled_from([FrameSubtype.QOS_DATA, FrameSubtype.DATA,
                             FrameSubtype.PROBE_REQUEST])
        )
        frames.append(
            CapturedFrame(
                timestamp_us=t,
                frame=Dot11Frame(
                    subtype=subtype, size=size, addr1=AP, addr2=sender, addr3=AP
                ),
                rate_mbps=rate,
            )
        )
    return frames


class TestExtractionInvariants:
    @given(frames=capture_sequences())
    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
    def test_observation_conservation(self, frames):
        """Per-frame parameters yield exactly one observation per
        attributable frame (time-derived ones skip the first frame)."""
        table = FrameTable.from_frames(frames)
        for parameter in ALL_PARAMETERS:
            observations = parameter.observe_table(table).values
            if parameter.name in ("rate", "size", "txtime"):
                assert len(observations) == len(frames)
            else:
                assert len(observations) == len(frames) - 1

    @given(frames=capture_sequences())
    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
    def test_observations_attributed_to_real_senders(self, frames):
        senders = {c.sender for c in frames}
        table = FrameTable.from_frames(frames)
        for parameter in ALL_PARAMETERS:
            for code in parameter.observe_table(table).sender_idx.tolist():
                assert table.senders[code] in senders


class TestSignatureInvariants:
    @given(frames=capture_sequences())
    @settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow])
    def test_weights_and_histograms_normalised(self, frames):
        builder = SignatureBuilder(FrameSize(), min_observations=1)
        table = FrameTable.from_frames(frames)
        for signature in builder.build_table(table).values():
            assert sum(signature.weights.values()) == pytest.approx(1.0)
            for histogram in signature.histograms.values():
                assert histogram.sum() == pytest.approx(1.0)
                assert np.all(histogram >= 0)

    @given(frames=capture_sequences())
    @settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow])
    def test_self_match_is_top_rank(self, frames):
        """A candidate matched against a database containing its own
        signature scores highest (or ties) for itself."""
        builder = SignatureBuilder(FrameSize(), min_observations=1)
        signatures = builder.build_table(FrameTable.from_frames(frames))
        database = ReferenceDatabase()
        for device, signature in signatures.items():
            database.add(device, signature)
        matrix = batch_match_signatures(list(signatures.values()), database)
        for column, row in enumerate(matrix):
            # Row i is the signature of database.devices[i].
            assert row[column] == pytest.approx(row.max())

    @given(frames=capture_sequences())
    @settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow])
    def test_scores_bounded(self, frames):
        builder = SignatureBuilder(FrameSize(), min_observations=1)
        signatures = builder.build_table(FrameTable.from_frames(frames))
        database = ReferenceDatabase()
        for device, signature in signatures.items():
            database.add(device, signature)
        matrix = batch_match_signatures(list(signatures.values()), database)
        assert matrix.shape == (len(signatures), len(database))
        assert ((0.0 <= matrix) & (matrix <= 1.0 + 1e-9)).all()


class TestPcapProperty:
    @given(frames=capture_sequences())
    @settings(max_examples=20, suppress_health_check=[HealthCheck.too_slow])
    def test_pcap_round_trip_preserves_fingerprint_inputs(self, frames):
        """Everything the fingerprint reads survives the pcap format
        (timestamps round to whole µs)."""
        buffer = io.BytesIO()
        write_trace_pcap(buffer, frames)
        restored = read_trace_pcap(buffer.getvalue())
        assert len(restored) == len(frames)
        for original, loaded in zip(frames, restored):
            assert loaded.sender == original.sender
            assert loaded.size == original.size
            assert loaded.rate_mbps == original.rate_mbps
            assert loaded.subtype == original.subtype
            assert loaded.timestamp_us == pytest.approx(
                original.timestamp_us, abs=1.0
            )
