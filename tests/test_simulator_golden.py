"""Golden-pinned simulator output.

The determinism test in ``tests/test_scenarios.py`` compares two runs
of the same code, and the evaluation goldens read only the columns the
fingerprint parameters use.  This file pins every field of every frame
the monitor captures, per library preset, so any change to the event
loop that moves an RNG draw, reorders a float expression or drops a
header bit fails here.  Regenerate (only in a change that means to
move the simulator's output) with::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_simulator_golden.py
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.dot11.capture import CapturedFrame
from repro.scenarios import build_scenario, scenario_names

GOLDEN_PATH = Path(__file__).parent / "golden" / "simulator_captures.json"

#: Same short builds as the determinism test in ``test_scenarios.py``.
DETERMINISM_DURATION_S = 30.0


def _mac(address) -> str:
    return "-" if address is None else str(address)


def frame_record(captured: CapturedFrame) -> str:
    """Every field of one captured frame, floats in round-trip form."""
    frame = captured.frame
    return "|".join(
        (
            repr(captured.timestamp_us),
            repr(captured.rate_mbps),
            repr(captured.signal_dbm),
            str(captured.channel),
            repr(captured.airtime_us),
            frame.subtype.name,
            str(frame.size),
            _mac(frame.addr1),
            _mac(frame.addr2),
            _mac(frame.addr3),
            str(int(frame.retry)),
            str(int(frame.to_ds)),
            str(int(frame.from_ds)),
            str(int(frame.protected)),
            str(int(frame.power_mgmt)),
            str(frame.duration_us),
            str(frame.seq),
        )
    )


def capture_digest(captures: list[CapturedFrame]) -> str:
    """sha256 over the records of a capture, in capture order."""
    digest = hashlib.sha256()
    for captured in captures:
        digest.update(frame_record(captured).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def summarise(name: str) -> dict:
    result = build_scenario(name, duration_s=DETERMINISM_DURATION_S).scenario.run()
    return {
        "frames": len(result.captures),
        "exchange_count": result.exchange_count,
        "collision_rounds": result.collision_rounds,
        "sha256": capture_digest(result.captures),
    }


def test_simulator_captures_match_golden():
    produced = {name: summarise(name) for name in scenario_names()}
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        GOLDEN_PATH.write_text(json.dumps(produced, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"golden file regenerated at {GOLDEN_PATH}")
    golden = json.loads(GOLDEN_PATH.read_text())
    assert set(produced) == set(golden), "preset list drifted"
    for name, expected in golden.items():
        assert produced[name] == expected, f"{name}: simulator output drifted"
