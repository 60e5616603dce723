"""Extension (Section VIII future work): multi-parameter fusion.

"Future work should also investigate whether the fingerprinting method
can be improved by combining several network parameters."  This bench
fuses inter-arrival + transmission time + frame size and compares the
identification accuracy against the best single parameter on the short
conference trace (the paper's hardest identification setting).
"""

from __future__ import annotations

from repro.analysis.plots import render_table
from repro.core.fusion import FusionMatcher
from repro.core.parameters import (
    FrameSize,
    InterArrivalTime,
    TransmissionTime,
)


def _fusion_identification(trace, training_s: float, window_s: float = 300.0):
    split = trace.split(training_s)
    fusion = FusionMatcher(
        parameters=[InterArrivalTime(), TransmissionTime(), FrameSize()],
        weights={"interarrival": 2.0, "txtime": 1.5, "size": 1.0},
        min_observations=50,
    )
    fusion.learn(split.training.table())
    known = fusion.devices
    correct = 0
    total = 0
    for window in split.validation.windows(window_s):
        fused = fusion.extract(window.table())
        devices = [device for device in fused if device in known]
        winners = fusion.identify([fused[device] for device in devices])
        for device, (winner, _score) in zip(devices, winners):
            total += 1
            correct += winner == device
    return correct / total if total else 0.0, total


def test_extension_parameter_fusion(datasets, eval_cache, benchmark):
    trace, training_s = datasets["conference2"]
    fusion_ratio, candidates = _fusion_identification(trace, training_s)

    single_ratios = {}
    for name in ("interarrival", "txtime", "size"):
        result = eval_cache.get("conference2", name)
        # Raw argmax accuracy (acceptance threshold 0): comparable to
        # the fusion measurement above.
        curve = result.identification.curve
        single_ratios[name] = max(
            (p.identification_ratio for p in curve.points), default=0.0
        )

    rows = [
        ("fusion (inter+txtime+size)", f"{fusion_ratio:.3f}", candidates),
        *(
            (name, f"{ratio:.3f}", "-")
            for name, ratio in sorted(single_ratios.items())
        ),
    ]
    print()
    print(
        render_table(
            ["fingerprint", "argmax accuracy", "# candidates"],
            rows,
            title="Extension: parameter fusion vs single parameters (conference 2)",
        )
    )

    # Fusion should at least match the best single parameter.
    assert fusion_ratio >= max(single_ratios.values()) - 0.05

    benchmark.pedantic(
        _fusion_identification, args=(trace, training_s), rounds=1, iterations=1
    )
