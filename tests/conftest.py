"""Shared fixtures: small deterministic scenarios and traces."""

from __future__ import annotations

import pytest

from repro.dot11.capture import CapturedFrame
from repro.dot11.frames import Dot11Frame, FrameSubtype
from repro.dot11.mac import MacAddress, vendor_mac
from repro.simulator import CbrTraffic, Scenario, StationSpec, WebTraffic
from repro.traces.trace import Trace


@pytest.fixture(scope="session")
def small_office_result():
    """A 90-second three-station encrypted office simulation."""
    scenario = Scenario(duration_s=90.0, seed=5, encrypted=True)
    scenario.add_station(
        StationSpec(
            name="alice",
            profile="intel-2200bg-linux",
            sources=[CbrTraffic(interval_ms=30)],
        )
    )
    scenario.add_station(
        StationSpec(
            name="bob",
            profile="broadcom-4318-win",
            sources=[WebTraffic(mean_think_s=3.0)],
        )
    )
    scenario.add_station(
        StationSpec(
            name="carol",
            profile="atheros-ar5212-madwifi",
            sources=[CbrTraffic(interval_ms=60)],
        )
    )
    return scenario.run()


@pytest.fixture(scope="session")
def small_office_trace(small_office_result) -> Trace:
    """The small office simulation as a Trace."""
    return small_office_result.trace(name="small-office", encrypted=True)


@pytest.fixture()
def mac_a() -> MacAddress:
    return vendor_mac("00:13:e8", 1)


@pytest.fixture()
def mac_b() -> MacAddress:
    return vendor_mac("00:18:f8", 2)


def make_data_capture(
    timestamp_us: float,
    sender: MacAddress,
    receiver: MacAddress,
    size: int = 1500,
    rate: float = 54.0,
    subtype: FrameSubtype = FrameSubtype.QOS_DATA,
    retry: bool = False,
) -> CapturedFrame:
    """Helper: one attributable captured frame."""
    frame = Dot11Frame(
        subtype=subtype,
        size=size,
        addr1=receiver,
        addr2=sender,
        addr3=receiver,
        retry=retry,
    )
    return CapturedFrame(timestamp_us=timestamp_us, frame=frame, rate_mbps=rate)


def count_match_calls(monkeypatch, module: str) -> list[int]:
    """Record every ``batch_match_signatures`` call made through
    ``module``: the returned list gets each call's candidate count."""
    from repro.core.matcher import batch_match_signatures

    calls: list[int] = []

    def counting(candidates, *args, **kwargs):
        calls.append(len(candidates))
        return batch_match_signatures(candidates, *args, **kwargs)

    monkeypatch.setattr(f"{module}.batch_match_signatures", counting)
    return calls
