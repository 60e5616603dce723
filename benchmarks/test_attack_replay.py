"""Attacks (Section VII-A): how forging attempts fare against the
fingerprint.

Three attacker strategies against an inter-arrival-guarded identity:

* plain MAC spoofing — different hardware, no effort: caught;
* replay with inserted attacker traffic — the paper notes insertions
  perturb the signature, restricting attacker capacity: measured as
  similarity degradation vs insertion rate;
* size-distribution mimicry at constant rate — reproduces the size
  histogram but not the timing: the size fingerprint is fooled, the
  timing fingerprint is not.
"""

from __future__ import annotations

import pytest

from repro.analysis.plots import render_table
from repro.applications.attacks import (
    mimic_signature_traffic,
    replay_with_insertions,
)
from repro.core.parameters import FrameSize, InterArrivalTime
from repro.core.signature import SignatureBuilder
from repro.core.similarity import cosine_similarity
from repro.dot11.mac import MacAddress
from repro.simulator import CbrTraffic, Scenario, StationSpec, WebTraffic
from repro.traces.table import FrameTable


@pytest.fixture(scope="module")
def victim_capture():
    scenario = Scenario(duration_s=120.0, seed=91, encrypted=True)
    scenario.add_station(
        StationSpec(
            name="victim",
            profile="intel-2200bg-linux",
            sources=[CbrTraffic(interval_ms=8), WebTraffic(mean_think_s=2.0)],
        )
    )
    scenario.add_station(
        StationSpec(
            name="neighbour",
            profile="broadcom-43224-osx",
            sources=[CbrTraffic(interval_ms=10)],
        )
    )
    result = scenario.run()
    victim = next(
        mac for mac, name in result.station_names.items() if name == "victim"
    )
    return result, victim


def _self_similarity(builder, reference, table, device) -> float:
    candidate = builder.build_table(table).get(device)
    if candidate is None:
        return 0.0
    combined = 0.0
    for ftype, hist in candidate.histograms.items():
        ref_hist = reference.histogram(ftype)
        if ref_hist is None:
            continue
        combined += reference.weight(ftype) * cosine_similarity(hist, ref_hist)
    return combined


def test_attack_replay_and_mimicry(victim_capture, benchmark):
    result, victim = victim_capture
    frames = result.captures
    builder = SignatureBuilder(InterArrivalTime(), min_observations=50)
    reference = builder.build_table(result.table()).get(victim)
    assert reference is not None

    rows = []
    degradation = {}
    for rate_hz in (0.0, 20.0, 100.0, 400.0):
        if rate_hz == 0.0:
            attacked = result.table()
        else:
            attacked = FrameTable.from_frames(
                replay_with_insertions(
                    [c for c in frames if c.sender == victim or c.sender is None],
                    insertion_rate_hz=rate_hz,
                )
            )
        similarity = _self_similarity(builder, reference, attacked, victim)
        degradation[rate_hz] = similarity
        rows.append((f"replay +{rate_hz:g} fps attacker traffic", f"{similarity:.3f}"))

    # Size mimicry: reproduce the victim's size histogram with Poisson
    # timing; check both fingerprints.
    size_builder = SignatureBuilder(FrameSize(), min_observations=50)
    size_reference = size_builder.build_table(result.table()).get(victim)
    assert size_reference is not None
    attacker_mac = MacAddress.parse("02:66:6f:72:67:65")
    bssid = next(c.frame.addr1 for c in frames if c.sender == victim)
    mimic = mimic_signature_traffic(
        size_reference,
        attacker=attacker_mac,
        bssid=bssid,
        duration_s=120.0,
    )
    mimic_as_victim = FrameTable.from_frames([c.with_sender(victim) for c in mimic])
    size_similarity = _self_similarity(
        size_builder, size_reference, mimic_as_victim, victim
    )
    timing_similarity = _self_similarity(
        builder, reference, mimic_as_victim, victim
    )
    rows.append(("size mimicry vs size fingerprint", f"{size_similarity:.3f}"))
    rows.append(("size mimicry vs timing fingerprint", f"{timing_similarity:.3f}"))

    print()
    print(
        render_table(
            ["attack", "self-similarity"],
            rows,
            title="Section VII-A: attack efficacy against the fingerprint",
        )
    )

    # Inserting traffic monotonically degrades the replayed signature.
    assert degradation[400.0] < degradation[0.0]
    # Size mimicry fools the size fingerprint far better than the
    # timing fingerprint (the paper's asymmetry).
    assert size_similarity > 0.8
    assert timing_similarity < size_similarity

    benchmark.pedantic(
        replay_with_insertions,
        args=([c for c in frames if c.sender == victim or c.sender is None],),
        kwargs={"insertion_rate_hz": 50.0},
        rounds=1,
        iterations=1,
    )
