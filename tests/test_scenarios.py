"""Scenario library: registry, eager validation, determinism.

Every library scenario is a *measurement fixture*: its capture must be
bit-identical run-to-run under its fixed seed (the golden matrix cells
hang off that), and ``stream()`` must replay the exact ``run()`` event
schedule (the streaming engine consumes it as a live feed).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dot11.mac import MacAddress
from repro.scenarios import build_scenario, scenario_by_name, scenario_names
from repro.scenarios.library import scenario_preset
from repro.simulator import CbrTraffic, Scenario, StationSpec
from repro.traces.table import FrameTable

#: Short builds are enough to pin determinism without slowing tier-1.
DETERMINISM_DURATION_S = 30.0


TABLE_COLUMNS = ("timestamp_us", "size", "rate_mbps", "sender_idx", "ftype_idx", "flags")


def assert_tables_identical(left: FrameTable, right: FrameTable) -> None:
    """Bit-identical comparison of two captures: every column, with
    its dtype, and both intern tuples."""
    assert left.senders == right.senders
    assert left.ftype_keys == right.ftype_keys
    for column in TABLE_COLUMNS:
        ours, theirs = getattr(left, column), getattr(right, column)
        assert ours.dtype == theirs.dtype, column
        np.testing.assert_array_equal(ours, theirs, err_msg=column)


class TestRegistry:
    def test_all_presets_registered(self):
        names = scenario_names()
        assert len(names) >= 8
        for expected in (
            "office-baseline",
            "lecture-hall",
            "iot-swarm",
            "overlapping-bss",
            "mac-randomizing-crowd",
            "mobile-commuters",
            "power-save-fleet",
            "video-floor",
        ):
            assert expected in names

    def test_unknown_scenario_raises_with_catalogue(self):
        with pytest.raises(KeyError, match="office-baseline"):
            scenario_by_name("no-such-scenario")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            scenario_preset(
                name="office-baseline",
                description="clash",
                duration_s=10.0,
                seed=1,
            )(lambda duration_s, seed, scale: Scenario(duration_s=duration_s))

    def test_metadata_is_consistent(self):
        for name in scenario_names():
            built = build_scenario(name)
            meta = built.metadata
            assert meta.name == name
            assert meta.station_count == len(built.scenario.specs)
            assert meta.station_count >= 2
            assert 0 < meta.training_s < meta.duration_s
            assert meta.window_s > 0
            assert meta.traffic_mix, f"{name} declares no traffic"
            assert meta.encrypted == built.scenario.encrypted
            assert meta.ap_count == built.scenario.ap_count

    def test_scale_grows_and_floors_station_count(self):
        base = build_scenario("lecture-hall").metadata.station_count
        assert build_scenario("lecture-hall", scale=2.0).metadata.station_count == 2 * base
        assert build_scenario("lecture-hall", scale=0.01).metadata.station_count == 2

    def test_simulate_is_memoised_per_build(self):
        built = build_scenario("office-baseline")
        assert built.simulate() is built.simulate()


class TestEagerValidation:
    def test_non_positive_duration_rejected(self):
        with pytest.raises(ValueError, match="duration"):
            build_scenario("office-baseline", duration_s=0.0)
        with pytest.raises(ValueError, match="duration"):
            build_scenario("office-baseline", duration_s=-5.0)

    def test_non_positive_scale_rejected(self):
        with pytest.raises(ValueError, match="scale"):
            build_scenario("office-baseline", scale=0.0)

    def test_duplicate_mac_rejected_at_add(self):
        scenario = Scenario(duration_s=10.0)
        mac = MacAddress.parse("02:00:00:00:00:01")
        scenario.add_station(
            StationSpec(name="a", profile="intel-2200bg-linux", mac=mac)
        )
        with pytest.raises(ValueError, match="already assigned"):
            scenario.add_station(
                StationSpec(name="b", profile="broadcom-4318-win", mac=mac)
            )

    def test_validate_rejects_zero_stations(self):
        with pytest.raises(ValueError, match="no stations"):
            Scenario(duration_s=10.0).validate()

    def test_validate_rejects_duplicate_names(self):
        scenario = Scenario(duration_s=10.0)
        scenario.add_station(StationSpec(name="twin", profile="intel-2200bg-linux"))
        scenario.add_station(StationSpec(name="twin", profile="broadcom-4318-win"))
        with pytest.raises(ValueError, match="duplicate station name"):
            scenario.validate()

    def test_validate_rejects_departure_before_arrival(self):
        scenario = Scenario(duration_s=10.0)
        scenario.add_station(
            StationSpec(
                name="ghost",
                profile="intel-2200bg-linux",
                arrival_s=5.0,
                departure_s=1.0,
            )
        )
        with pytest.raises(ValueError, match="departure before arrival"):
            scenario.validate()

    def test_validate_rejects_negative_arrival(self):
        scenario = Scenario(duration_s=10.0)
        scenario.add_station(
            StationSpec(
                name="early", profile="intel-2200bg-linux", arrival_s=-1.0
            )
        )
        with pytest.raises(ValueError, match="negative arrival"):
            scenario.validate()

    def test_every_library_preset_validates(self):
        for name in scenario_names():
            build_scenario(name).scenario.validate()


@pytest.mark.parametrize("name", scenario_names())
def test_scenario_is_deterministic(name):
    """Two builds under the fixed seed yield bit-identical captures."""
    first = build_scenario(name, duration_s=DETERMINISM_DURATION_S).simulate()
    second = build_scenario(name, duration_s=DETERMINISM_DURATION_S).simulate()
    assert len(first) == len(second)
    assert first.device_names == second.device_names
    assert_tables_identical(first.table(), second.table())


@pytest.mark.parametrize("name", scenario_names())
def test_simulated_table_matches_interned_captures(name):
    """The table the simulator interns while it runs is the table
    ``FrameTable.from_frames`` interns from the frames it builds on
    demand: same codes, flags and dtypes."""
    result = build_scenario(name, duration_s=DETERMINISM_DURATION_S).scenario.run()
    assert result.frame_count == len(result.captures)
    assert_tables_identical(result.table(), FrameTable.from_frames(result.captures))


@pytest.mark.parametrize("name", ["office-baseline", "iot-swarm"])
def test_stream_replays_run_event_for_event(name):
    """``Scenario.stream()`` yields the exact ``run()`` capture: the
    chunks' columns, concatenated, equal ``run().table()``'s with their
    dtypes, every chunk codes senders and frame types as the run does,
    and the last chunk carries the run's intern tuples."""
    ran = build_scenario(name, duration_s=DETERMINISM_DURATION_S).scenario.run().table()
    streamed = build_scenario(name, duration_s=DETERMINISM_DURATION_S)
    chunks = list(streamed.scenario.stream(chunk_s=3.0))
    assert len(chunks) > 1
    for column in TABLE_COLUMNS:
        parts = [getattr(chunk, column) for chunk in chunks]
        expected = getattr(ran, column)
        assert {part.dtype for part in parts} == {expected.dtype}, column
        np.testing.assert_array_equal(np.concatenate(parts), expected, err_msg=column)
    for chunk in chunks:
        assert chunk.senders == ran.senders[: len(chunk.senders)]
        assert chunk.ftype_keys == ran.ftype_keys[: len(chunk.ftype_keys)]
    assert chunks[-1].senders == ran.senders
    assert chunks[-1].ftype_keys == ran.ftype_keys


def test_mac_randomizing_crowd_uses_local_macs():
    """The crowd preset presents locally-administered addresses only."""
    built = build_scenario("mac-randomizing-crowd")
    for spec in built.scenario.specs:
        assert spec.mac is not None
        assert spec.mac.is_locally_administered
