"""repro — passive 802.11 device fingerprinting.

A full reproduction of Neumann, Heen & Onno, *An Empirical Study of
Passive 802.11 Device Fingerprinting* (ICDCS 2012): the five-parameter
histogram fingerprinting method, its evaluation harness, a
discrete-event 802.11 MAC simulator standing in for the paper's
testbeds, a pure-Python Radiotap/pcap codec, and the applications the
paper sketches (MAC-spoof detection, rogue-AP detection, tracking).

Quickstart (see README.md / examples/)::

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
]

