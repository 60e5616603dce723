"""repro — passive 802.11 device fingerprinting.

A full reproduction of Neumann, Heen & Onno, *An Empirical Study of
Passive 802.11 Device Fingerprinting* (ICDCS 2012): the five-parameter
histogram fingerprinting method, its evaluation harness, a
discrete-event 802.11 MAC simulator standing in for the paper's
testbeds, a pure-Python Radiotap/pcap codec, and the applications the
paper sketches (MAC-spoof detection, rogue-AP detection, tracking).

Quickstart::

    from repro import quick_fingerprint_demo
    report = quick_fingerprint_demo()

or assemble the pieces (see README.md / examples/)::

    from repro.core import (
        DetectionConfig, InterArrivalTime, ReferenceDatabase,
        SignatureBuilder, extract_window_candidates,
    )
    from repro.traces import office_trace

    trace = office_trace(1)
    split = trace.split(training_s=600)
    builder = SignatureBuilder(InterArrivalTime())
    database = ReferenceDatabase.from_training_table(builder, split.training.table())
    config = DetectionConfig(window_s=300.0)
    for candidate in extract_window_candidates(
        split.validation, builder, database, config
    ):
        print(candidate.window_index, candidate.device, "->", *candidate.best)
"""

from repro.core import (
    ALL_PARAMETERS,
    DetectionConfig,
    FrameSize,
    InterArrivalTime,
    MediumAccessTime,
    ReferenceDatabase,
    Signature,
    SignatureBuilder,
    TransmissionRate,
    TransmissionTime,
    evaluate_trace,
)
from repro.traces import FrameTable, Trace, conference_trace, office_trace

__version__ = "1.0.0"

__all__ = [
    "ALL_PARAMETERS",
    "DetectionConfig",
    "FrameSize",
    "FrameTable",
    "InterArrivalTime",
    "MediumAccessTime",
    "ReferenceDatabase",
    "Signature",
    "SignatureBuilder",
    "Trace",
    "TransmissionRate",
    "TransmissionTime",
    "conference_trace",
    "evaluate_trace",
    "office_trace",
    "quick_fingerprint_demo",
]


def quick_fingerprint_demo() -> str:
    """One-call demo: simulate a small office, fingerprint it, report.

    Returns a human-readable report string (also used by the README
    quickstart and ``examples/quickstart.py``).
    """
    from repro.simulator import CbrTraffic, Scenario, StationSpec, WebTraffic

    scenario = Scenario(duration_s=120.0, seed=11, encrypted=True)
    scenario.add_station(
        StationSpec(
            name="laptop-a",
            profile="intel-2200bg-linux",
            sources=[CbrTraffic(interval_ms=25)],
        )
    )
    scenario.add_station(
        StationSpec(
            name="laptop-b",
            profile="broadcom-4318-win",
            sources=[WebTraffic(mean_think_s=4.0)],
        )
    )
    trace = scenario.run().trace(name="quick-demo", encrypted=True)
    outcome = evaluate_trace(
        trace,
        InterArrivalTime(),
        training_s=40.0,
        config=DetectionConfig(window_s=20.0),
    )
    lines = [
        f"trace: {trace.name} ({len(trace)} frames, {trace.duration_s:.0f}s)",
        f"reference devices: {outcome.reference_devices}",
        f"similarity AUC: {outcome.auc:.3f}",
        f"identification ratio @ FPR 0.1: {outcome.identification_at(0.1):.3f}",
    ]
    return "\n".join(lines)
