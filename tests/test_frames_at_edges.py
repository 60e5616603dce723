"""Frames only at the edges.

Between a capture's edges — the simulator, a pcap decode, the attack
helpers and ``to_pcap`` — a capture is a
:class:`~repro.traces.table.FrameTable`.  These tests count
:class:`~repro.dot11.capture.CapturedFrame` constructions over the
simulate → evaluate, simulate → stream and simulate → statistics and
fusion paths, and require none.
"""

from __future__ import annotations

import pytest

from repro.core.fusion import FusionMatcher
from repro.core.parameters import FrameSize, InterArrivalTime
from repro.dot11.capture import CapturedFrame
from repro.evaluation.matrix import CellKey, evaluate_cell
from repro.scenarios import build_scenario
from repro.streaming import StreamEngine, StreamingSignatureBuilder, WindowConfig
from repro.traces.stats import summarize_trace

#: The preset the streaming and trace cases run: 14k frames at half scale.
PRESET = "lecture-hall"
SCALE = 0.5


@pytest.fixture
def built_frames(monkeypatch) -> list[int]:
    """A one-element counter of the ``CapturedFrame``s built while the
    test runs."""
    built = [0]
    original = CapturedFrame.__post_init__

    def counting(self) -> None:
        built[0] += 1
        original(self)

    monkeypatch.setattr(CapturedFrame, "__post_init__", counting)
    return built


def test_the_counter_sees_frame_objects(built_frames):
    result = build_scenario(PRESET, duration_s=10.0, scale=SCALE).scenario.run()
    assert built_frames[0] == 0
    assert len(result.captures) == built_frames[0] > 0


def test_evaluate_cell_builds_no_frames(built_frames):
    cell = evaluate_cell(CellKey(PRESET, "interarrival", "cosine"), scale=SCALE)
    assert cell.frame_count > 0
    assert built_frames[0] == 0


def test_streaming_a_simulation_builds_no_frames(built_frames):
    scenario = build_scenario(PRESET, scale=SCALE).scenario
    engine = StreamEngine(
        lambda: StreamingSignatureBuilder(InterArrivalTime(), min_observations=30),
        window=WindowConfig(window_s=15.0),
    )
    stats = engine.run_chunked(scenario.stream())
    assert stats.frames > 10_000 and stats.windows_closed > 0
    assert built_frames[0] == 0


def test_statistics_and_fusion_build_no_frames(built_frames):
    built = build_scenario(PRESET, scale=SCALE)
    trace = built.simulate()
    stats = summarize_trace(trace, built.metadata.training_s, min_observations=30)
    assert stats.total_frames == len(trace) and stats.reference_devices > 0
    split = trace.split(built.metadata.training_s)
    fusion = FusionMatcher([InterArrivalTime(), FrameSize()], min_observations=30)
    fusion.learn(split.training.table())
    assert fusion.devices
    assert fusion.extract(split.validation.table())
    assert built_frames[0] == 0
