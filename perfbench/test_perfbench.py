"""Tests of the benchmark's own machinery: the span tracer, the seeded
input generators and the metric lists in ``BENCHMARK.json``.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import inputs
import layers
import run
from tracer import Tracer


class FakeClock:
    """A clock that advances only when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float):
        self.now += seconds


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.advance(1.0)

    def middle():
        clock.advance(2.0)
        tracer.call("leaf", leaf)
        tracer.call("leaf", leaf)

    def outer():
        clock.advance(4.0)
        tracer.call("middle", middle)

    tracer.call("outer", outer)
    spans = tracer.reduce()
    assert spans["outer"] == {"calls": 1, "total_s": 8.0, "self_s": 4.0}
    assert spans["middle"] == {"calls": 1, "total_s": 4.0, "self_s": 2.0}
    assert spans["leaf"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0}
    # Self times of nested spans partition the outermost span.
    assert sum(entry["self_s"] for entry in spans.values()) == 8.0


def test_reduce_since_drops_earlier_spans():
    clock = FakeClock()
    tracer = Tracer(clock)
    tracer.call("early", clock.advance, 1.0)
    cut = clock()
    tracer.call("late", clock.advance, 3.0)
    assert set(tracer.reduce(since=cut)) == {"late"}


def test_generator_spans_time_only_next_calls():
    clock = FakeClock()
    tracer = Tracer(clock)

    def produce():
        for item in range(3):
            clock.advance(1.0)
            yield item

    traced = tracer.wrap_generator("gen", produce)
    for _ in traced():
        clock.advance(10.0)  # consumer work: not the generator's
    entry = tracer.reduce()["gen"]
    assert entry["total_s"] == 3.0
    assert entry["calls"] == 4  # three items and the exhausting call


def test_each_thread_keeps_its_own_span_stack():
    tracer = Tracer()
    inside = threading.Event()
    release = threading.Event()

    def worker():
        tracer.call("worker", lambda: None)

    def holder():
        inside.set()
        release.wait(timeout=10)

    thread = threading.Thread(target=tracer.call, args=("holder", holder))
    thread.start()
    assert inside.wait(timeout=10)
    other = threading.Thread(target=worker)
    other.start()
    other.join(timeout=10)
    release.set()
    thread.join(timeout=10)
    assert not thread.is_alive() and not other.is_alive()
    assert all(span.parent is None for span in tracer.spans)


def _repro_namespace() -> dict:
    """Every attribute of every loaded repro module and class."""
    snapshot = {}
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "repro" or module is None:
            continue
        for attr, value in vars(module).items():
            snapshot[(name, attr)] = value
            if isinstance(value, type) and value.__module__.startswith("repro"):
                for key, member in vars(value).items():
                    snapshot[(name, attr, key)] = member
    return snapshot


def test_restore_puts_back_every_wrapped_name():
    tracer = Tracer()
    layers.install(tracer)  # imports every layer module first
    tracer.restore()
    before = _repro_namespace()
    tracer = Tracer()
    layers.install(tracer)
    patched = _repro_namespace()
    assert any(patched[key] is not before[key] for key in before), "nothing was wrapped"
    tracer.restore()
    after = _repro_namespace()
    assert set(after) == set(before)
    assert all(after[key] is before[key] for key in before)


def test_wrapping_covers_names_imported_by_other_modules():
    import repro.core.detection as detection
    import repro.streaming.matcher as online

    tracer = Tracer()
    layers.install(tracer)
    try:
        assert detection.batch_match_signatures is online.batch_match_signatures
        assert detection.batch_match_signatures.__wrapped__ is not None
    finally:
        tracer.restore()


def _tree(directory: Path) -> dict[str, object]:
    """Every generated file's content; archives by their arrays, since
    zip members carry the time they were written."""
    content = {}
    for path in sorted(directory.rglob("*")):
        if not path.is_file():
            continue
        key = str(path.relative_to(directory))
        if path.suffix == ".npz":
            with np.load(path) as archive:
                content[key] = {name: archive[name].tobytes() for name in archive.files}
        else:
            content[key] = path.read_bytes()
    return content


@pytest.mark.parametrize("writer", [inputs.write_live_inputs, inputs.write_fleet_inputs])
def test_same_seed_gives_identical_inputs(writer, tmp_path):
    writer(5, tmp_path / "first")
    writer(5, tmp_path / "second")
    writer(6, tmp_path / "other")
    first = _tree(tmp_path / "first")
    assert first and first == _tree(tmp_path / "second")
    assert first != _tree(tmp_path / "other")


def test_chunks_are_interned_per_chunk_in_first_seen_order():
    spec = inputs.CaptureSpec(frames=1000, population=20, active=10, epoch_frames=300, drift=3)
    capture = inputs.synthetic_capture(3, 1, spec)
    chunks = inputs.chunk_tables(capture, 256)
    assert sum(len(chunk) for chunk in chunks) == 1000
    for lo, chunk in zip(range(0, 1000, 256), chunks):
        codes = chunk.sender_idx[chunk.sender_idx >= 0]
        assert list(dict.fromkeys(codes.tolist())) == list(range(len(chunk.senders)))
        devices = capture["device"][lo : lo + len(chunk)]
        assert [s.value - inputs.MAC_BASE for s in chunk.senders] == list(
            dict.fromkeys(devices[devices >= 0].tolist())
        )


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
