"""Golden-file pin of the streaming builder's checkpoint payload.

The chunked-versus-per-frame suites compare two ingest paths that share
one accumulator layout, so a change to that layout moves both sides at
once.  This test pins the ``export_state()`` payload itself — device
order, frame-type order within ``counts``/``totals``, every float — for
the inter-arrival builder fed ``FRAMES`` in mixed chunk sizes against
the ``nodecay`` entry of ``tests/golden/streaming_builder_state.json``,
and for the other four parameters against
``tests/golden/streaming_builder_params.json``.  The comparison is on
the serialised text, so key order counts.

Regenerate only after a deliberate change to the checkpoint format:

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_streaming_golden.py
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.core.parameters import InterArrivalTime, parameter_by_name
from repro.dot11.mac import MacAddress
from repro.streaming import StreamingSignatureBuilder
from tests.test_streaming_chunked import TABLE, chunk_spans

GOLDEN_PATH = Path(__file__).parent / "golden" / "streaming_builder_state.json"
PARAMS_GOLDEN_PATH = Path(__file__).parent / "golden" / "streaming_builder_params.json"
CHUNK_SIZES = [1, 37, 256, 5, 400, 2, 90]
#: The entry of the first file: the inter-arrival builder's payload.
PAYLOAD = "nodecay"
#: The parameters pinned in the second file.
OTHER_PARAMETERS = ("rate", "size", "txtime", "access")


def make_builder() -> StreamingSignatureBuilder:
    return StreamingSignatureBuilder(InterArrivalTime(), min_observations=10)


def fed(builder: StreamingSignatureBuilder) -> dict:
    for lo, hi in chunk_spans(len(TABLE), CHUNK_SIZES):
        builder.update_table(TABLE, lo, hi)
    return builder.export_state()


def compute_payloads() -> dict:
    return {PAYLOAD: fed(make_builder())}


def compute_parameter_payloads() -> dict:
    return {
        name: fed(
            StreamingSignatureBuilder(parameter_by_name(name), min_observations=10)
        )
        for name in OTHER_PARAMETERS
    }


def dump(payloads: dict) -> str:
    return json.dumps(payloads, indent=1) + "\n"


def check_golden(path: Path, payloads: dict) -> None:
    text = dump(payloads)
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        path.write_text(text)
        pytest.skip(f"golden file regenerated at {path}")
    assert text == path.read_text()


def test_builder_payload_matches_golden_file():
    check_golden(GOLDEN_PATH, compute_payloads())


def test_other_parameter_payloads_match_golden_file():
    """Rate, size and txtime carry no stream state; access has the most
    delicate first-row arithmetic, ``(t - tt) - t_prev``."""
    check_golden(PARAMS_GOLDEN_PATH, compute_parameter_payloads())


@pytest.mark.parametrize("name", [PAYLOAD])
def test_restore_then_export_round_trips_the_golden_payload(name):
    golden = json.loads(GOLDEN_PATH.read_text())[name]
    builder = make_builder()
    builder.restore_state(golden)
    assert dump(builder.export_state()) == dump(golden)


def _corrupted_golden(corrupt) -> tuple[dict, str, str]:
    """The golden payload with ``corrupt(entry, ftype)`` applied to its
    first device's first frame type; returns the payload and the
    device and frame type an error must name."""
    payload = json.loads(GOLDEN_PATH.read_text())[PAYLOAD]
    entry = payload["devices"][0]
    device = str(MacAddress(entry["mac"]))
    ftype = next(iter(entry["counts"]))
    corrupt(payload, entry, ftype)
    return payload, device, ftype


def test_checkpoint_counts_must_hold_one_count_per_bin():
    """A one-element counts list is refused, not broadcast over the bins."""

    def corrupt(payload, entry, ftype):
        entry["counts"][ftype] = [7.0]
        entry["totals"][ftype] = 7.0

    payload, device, ftype = _corrupted_golden(corrupt)
    with pytest.raises(ValueError, match=f"{device}.*{ftype}.*1 bin counts"):
        make_builder().restore_state(payload)


def test_checkpoint_listing_a_device_twice_is_rejected():
    """A repeated device is refused, where it used to leave an orphan row."""

    def corrupt(payload, entry, ftype):
        payload["devices"].append(dict(entry))

    payload, device, _ = _corrupted_golden(corrupt)
    with pytest.raises(ValueError, match=f"{device} is listed twice"):
        make_builder().restore_state(payload)


def test_checkpoint_total_must_equal_its_count_sum():
    """A total off its counts' sum is refused, not taken as the mass."""

    def corrupt(payload, entry, ftype):
        entry["totals"][ftype] = 1e9

    payload, device, ftype = _corrupted_golden(corrupt)
    with pytest.raises(ValueError, match=f"{device}.*{ftype}.*total 1000000000.0"):
        make_builder().restore_state(payload)


def test_checkpoint_total_without_counts_is_rejected():
    """A total for a frame type the entry holds no counts for is
    refused, not dropped."""

    def corrupt(payload, entry, ftype):
        entry["totals"]["Disassociation"] = 3.0

    payload, device, _ = _corrupted_golden(corrupt)
    with pytest.raises(ValueError, match=f"{device} has totals but no counts"):
        make_builder().restore_state(payload)


def test_checkpoint_frame_type_without_observations_is_rejected():
    """A frame type is written from its first kept observation on, so
    an all-zero one is refused."""

    def corrupt(payload, entry, ftype):
        entry["counts"][ftype] = [0.0] * len(entry["counts"][ftype])
        entry["totals"][ftype] = 0.0

    payload, device, ftype = _corrupted_golden(corrupt)
    with pytest.raises(ValueError, match=f"{device}.*{ftype}.*holds no observation"):
        make_builder().restore_state(payload)


def test_checkpoint_total_must_be_a_number():
    """A total written as text is refused, not parsed."""

    def corrupt(payload, entry, ftype):
        entry["totals"][ftype] = str(entry["totals"][ftype])

    payload, device, ftype = _corrupted_golden(corrupt)
    with pytest.raises(ValueError, match=f"{device}.*{ftype}.* total is not a finite"):
        make_builder().restore_state(payload)


@pytest.mark.parametrize("mac", [1.7, "12", True])
def test_checkpoint_mac_must_be_an_integer(mac):
    """A MAC the writer never writes is refused, not truncated or
    parsed into some device."""

    def corrupt(payload, entry, ftype):
        entry["mac"] = mac

    payload, _, _ = _corrupted_golden(corrupt)
    with pytest.raises(ValueError, match="device mac is not a non-negative integer"):
        make_builder().restore_state(payload)


@pytest.mark.parametrize("count", [-3.0, 0.5, float("inf")])
def test_checkpoint_counts_must_be_finite_non_negative_integers(count):
    """A count no feed can produce is refused, also when its total is
    adjusted to match."""

    def corrupt(payload, entry, ftype):
        entry["counts"][ftype][0] = count
        entry["totals"][ftype] = sum(entry["counts"][ftype])

    payload, device, ftype = _corrupted_golden(corrupt)
    with pytest.raises(
        ValueError, match=f"{device}.*{ftype}.*not a finite non-negative integer"
    ):
        make_builder().restore_state(payload)


def test_golden_payload_is_discriminative():
    """Guard against a regenerated-but-degenerate file: every builder
    holds several devices over several frame types."""
    golden = json.loads(GOLDEN_PATH.read_text())
    others = json.loads(PARAMS_GOLDEN_PATH.read_text())
    assert sorted(others) == sorted(OTHER_PARAMETERS)
    for payload in [*golden.values(), *others.values()]:
        assert len(payload["devices"]) >= 5
        assert all(len(entry["counts"]) >= 2 for entry in payload["devices"])
    assert others["access"]["previous_t"] is not None
