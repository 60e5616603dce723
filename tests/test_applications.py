"""Tests for the Section VII applications: spoof detection, rogue AP,
tracking, and the attack models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.applications.attacks import (
    inject_fake_frames,
    pollute_training,
    replay_with_insertions,
    spoof_mac,
)
from repro.applications.rogue_ap import RogueApDetector, ap_own_rows
from repro.applications.spoof_detector import SpoofDetector, SpoofVerdict
from repro.applications.tracker import DeviceTracker
from repro.core.database import ReferenceDatabase
from repro.core.detection import matched_candidates
from repro.core.matcher import batch_match_signatures
from repro.core.parameters import InterArrivalTime
from repro.core.signature import Signature
from repro.dot11.frames import FrameSubtype
from repro.dot11.mac import MacAddress
from repro.persistence import load_database, save_database
from repro.simulator import CbrTraffic, Scenario, StationSpec, WebTraffic
from repro.streaming import OnlineMatcher
from repro.streaming.windows import ClosedWindow
from repro.traces.table import FrameTable
from tests import oracles
from tests.conftest import count_match_calls, make_data_capture


@pytest.fixture(scope="module")
def spoof_scenario():
    """Two legitimate devices plus an attacker with a different card.

    The channel is kept busy (as in the paper's traces) so
    inter-arrival values fall inside the histogram range instead of
    clipping into the idle tail.
    """
    scenario = Scenario(duration_s=120.0, seed=21, encrypted=True)
    scenario.add_station(
        StationSpec(
            name="legit-1",
            profile="intel-2200bg-linux",
            sources=[CbrTraffic(interval_ms=8), WebTraffic(mean_think_s=2.0)],
        )
    )
    scenario.add_station(
        StationSpec(
            name="legit-2",
            profile="atheros-ar5212-madwifi",
            sources=[WebTraffic(mean_think_s=1.5)],
        )
    )
    scenario.add_station(
        StationSpec(
            name="attacker",
            profile="realtek-rtl8187-linux",
            sources=[CbrTraffic(interval_ms=9)],
        )
    )
    for index in range(2):
        scenario.add_station(
            StationSpec(
                name=f"background-{index}",
                profile="broadcom-43224-osx",
                sources=[CbrTraffic(interval_ms=12), WebTraffic(mean_think_s=2.0)],
            )
        )
    result = scenario.run()
    macs = {name: mac for mac, name in result.station_names.items()}
    return result, macs


class TestSpoofDetector:
    def test_genuine_devices_pass(self, spoof_scenario):
        result, macs = spoof_scenario
        allowed = {macs["legit-1"], macs["legit-2"]}
        boundary = 60e6
        train = result.table().slice_us(0.0, boundary)
        check = result.table().slice_us(boundary, np.inf)
        detector = SpoofDetector(min_observations=30)
        learnt = detector.learn(train, allowed)
        assert learnt == allowed
        verdicts = {c.device: c for c in detector.check_window(check)}
        assert verdicts[macs["legit-1"]].verdict is SpoofVerdict.GENUINE
        assert verdicts[macs["legit-2"]].verdict is SpoofVerdict.GENUINE

    def test_spoofed_mac_detected(self, spoof_scenario):
        result, macs = spoof_scenario
        victim = macs["legit-1"]
        attacker = macs["attacker"]
        allowed = {victim}
        boundary = 60e6
        table = result.table()
        train = table.select(
            (table.timestamp_us < boundary)
            & (table.sender_idx != table.sender_code(attacker))
        )
        # Validation: the attacker takes over the victim's MAC and the
        # real victim goes silent.
        check = [
            c
            for c in result.captures
            if c.timestamp_us >= boundary and (c.sender is None or c.sender != victim)
        ]
        check = FrameTable.from_frames(spoof_mac(check, attacker, victim))
        detector = SpoofDetector(min_observations=30)
        detector.learn(train, allowed)
        verdicts = {c.device: c for c in detector.check_window(check)}
        assert verdicts[victim].verdict is SpoofVerdict.SPOOFED

    def test_unknown_device_flagged(self, spoof_scenario):
        result, macs = spoof_scenario
        detector = SpoofDetector(min_observations=30)
        detector.learn(result.table(), {macs["legit-1"]})
        verdicts = {c.device: c for c in detector.check_window(result.table())}
        assert verdicts[macs["attacker"]].verdict is SpoofVerdict.UNKNOWN_DEVICE

    def test_check_window_matches_once(self, spoof_scenario, monkeypatch):
        """The batch entry matches every signature of the window in one
        call and reads its verdicts off those rows."""
        result, macs = spoof_scenario
        table = result.table()
        detector = SpoofDetector(min_observations=30)
        detector.learn(table.slice_us(0.0, 60e6), {macs["legit-1"], macs["legit-2"]})
        window = table.slice_us(60e6, np.inf)
        calls = count_match_calls(monkeypatch, "repro.applications.spoof_detector")
        checks = detector.check_window(window)
        signatures = detector.builder.build_table(window)
        assert calls == [len(signatures)]
        assert checks == detector.check_matches(
            matched(signatures, detector.database), window.active_senders()
        )

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            SpoofDetector(accept_threshold=1.5)


def qos_data_signature(*mass: float) -> Signature:
    """A signature of QoS Data frames alone, with the given bin masses."""
    return Signature(
        histograms={"QoS Data": np.array(mass, dtype=float)},
        weights={"QoS Data": 1.0},
    )


def matched(signatures: dict, database: ReferenceDatabase, window_index: int = 0):
    """A window's candidates with their rows of the window's one call."""
    scores = batch_match_signatures(list(signatures.values()), database)
    return matched_candidates(signatures, scores, database, window_index)


def engine_match(signatures: dict, senders: set, database: ReferenceDatabase):
    """The stream engine's match of a closed window with these candidates."""
    closed = ClosedWindow(
        index=0,
        start_us=0.0,
        end_us=1e6,
        frame_count=0,
        signatures=signatures,
        senders=senders,
    )
    return OnlineMatcher(database).match_window(closed)


class TestSpoofRule:
    """``check_matches`` reads a window's matched rows: a device's
    self-similarity is its own column of its row, its best other
    similarity the maximum of the other columns (0.0 with one
    reference), and it is genuine when the self-similarity is at least
    ``accept_threshold`` and at least the best other plus ``margin``."""

    A = MacAddress.parse("00:13:e8:00:00:0a")
    B = MacAddress.parse("00:18:f8:00:00:0b")
    C = MacAddress.parse("00:14:a4:00:00:0c")
    STRANGER = MacAddress.parse("00:0e:8e:00:00:0d")

    def _detector(self, **kwargs) -> SpoofDetector:
        detector = SpoofDetector(**kwargs)
        detector.database.add(self.A, qos_data_signature(1, 0, 0))
        detector.database.add(self.B, qos_data_signature(0, 1, 0))
        detector.database.add(self.C, qos_data_signature(1, 1, 0))
        return detector

    def test_one_call_per_window(self, monkeypatch):
        detector = self._detector()
        engine_calls = count_match_calls(monkeypatch, "repro.streaming.matcher")
        calls = count_match_calls(monkeypatch, "repro.applications.spoof_detector")
        window = {
            self.A: qos_data_signature(1, 0.2, 0),
            self.C: qos_data_signature(0.1, 1, 0),
        }
        active = {self.A, self.B, self.C, self.STRANGER}
        matches = engine_match(window, active, detector.database)
        checks = detector.check_matches(matches, active)
        assert engine_calls == [2]
        assert calls == []  # the rule reads the engine's rows
        assert [(check.device, check.verdict) for check in checks] == [
            (self.STRANGER, SpoofVerdict.UNKNOWN_DEVICE),
            (self.A, SpoofVerdict.GENUINE),
            (self.C, SpoofVerdict.SPOOFED),
            (self.B, SpoofVerdict.INSUFFICIENT),
        ]

    def test_similarities_are_entries_of_the_window_matrix(self):
        detector = self._detector()
        window = {
            self.A: qos_data_signature(1, 0.2, 0),
            self.B: qos_data_signature(0.3, 1, 0.5),
            self.C: qos_data_signature(1, 0.8, 0.1),
        }
        matches = matched(window, detector.database)
        checks = detector.check_matches(matches, set(window))
        matrix = batch_match_signatures(
            [window[check.device] for check in checks], detector.database
        )
        devices = detector.database.devices
        for check, row in zip(checks, matrix.tolist()):
            own = devices.index(check.device)
            assert check.self_similarity == row[own]
            assert check.best_other_similarity == max(row[:own] + row[own + 1 :])

    def test_one_reference_leaves_best_other_at_zero(self):
        detector = SpoofDetector()
        detector.database.add(self.A, qos_data_signature(1, 0, 0))
        (check,) = detector.check_matches(
            matched({self.A: qos_data_signature(1, 0.5, 0)}, detector.database),
            {self.A},
        )
        assert check.self_similarity > 0.55
        assert check.best_other_similarity == 0.0
        assert check.verdict is SpoofVerdict.GENUINE

    @pytest.mark.parametrize(
        "accept_threshold, margin, verdict",
        [
            (0.55, 0.0, SpoofVerdict.GENUINE),
            (0.55, 0.2, SpoofVerdict.GENUINE),
            (0.55, 0.25, SpoofVerdict.SPOOFED),  # the margin decides
            (0.999, 0.0, SpoofVerdict.SPOOFED),  # the threshold decides
        ],
    )
    def test_threshold_and_margin(self, accept_threshold, margin, verdict):
        # Self 0.995 against A, best other 0.774 against C.
        detector = self._detector(accept_threshold=accept_threshold, margin=margin)
        (check,) = detector.check_matches(
            matched({self.A: qos_data_signature(1, 0.1, 0)}, detector.database),
            {self.A},
        )
        assert check.verdict is verdict


class TestDetectorThresholds:
    @pytest.mark.parametrize("value", [float("nan"), -0.5, 1.5])
    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(
                lambda value: SpoofDetector(accept_threshold=value), id="spoof"
            ),
            pytest.param(lambda value: SpoofDetector(margin=value), id="spoof-margin"),
            pytest.param(
                lambda value: RogueApDetector(accept_threshold=value), id="rogue-ap"
            ),
            pytest.param(
                lambda value: DeviceTracker(link_threshold=value), id="tracker"
            ),
        ],
    )
    def test_out_of_range_threshold_refused(self, make, value):
        with pytest.raises(ValueError, match="out of range"):
            make(value)


class TestRogueApDetection:
    @pytest.fixture(scope="class")
    def two_ap_runs(self):
        """The same SSID served first by the real AP, later by a rogue
        with different hardware."""

        def run(ap_profile: str, seed: int, beacon_size: int):
            scenario = Scenario(
                duration_s=90.0,
                seed=seed,
                ap_profile=ap_profile,
                ap_beacon_size=beacon_size,
            )
            scenario.add_station(
                StationSpec(
                    name="client",
                    profile="intel-2200bg-linux",
                    sources=[CbrTraffic(interval_ms=4), WebTraffic(mean_think_s=1.5)],
                    downlink=[WebTraffic(mean_think_s=1.0, mean_burst_frames=20)],
                )
            )
            return scenario.run()

        genuine = run("atheros-ar9285-ath9k", seed=31, beacon_size=180)
        # The rogue copies the SSID but its hardware and IE set differ.
        rogue = run("broadcom-4318-win", seed=32, beacon_size=212)
        return genuine, rogue

    def test_forwarded_frames_excluded(self, two_ap_runs):
        genuine, _rogue = two_ap_runs
        ap = next(mac for mac, name in genuine.station_names.items() if name == "ap-0")
        own = ap_own_rows(genuine.table(), ap)
        kept = [c for c, keep in zip(genuine.captures, own.tolist()) if keep]
        assert kept
        assert all(not (c.frame.is_data and c.frame.from_ds) for c in kept)
        assert kept == oracles.ap_own_frames(genuine.captures, ap)

    def test_genuine_ap_accepted(self, two_ap_runs):
        from repro.core.parameters import FrameSize

        genuine, _rogue = two_ap_runs
        ap = next(mac for mac, name in genuine.station_names.items() if name == "ap-0")
        boundary = 45e6
        detector = RogueApDetector(parameter=FrameSize(), min_observations=30)
        assert detector.learn(genuine.table().slice_us(0.0, boundary), ap)
        verdict = detector.check(genuine.table().slice_us(boundary, np.inf), ap)
        assert not verdict.is_rogue
        assert verdict.similarity > 0.6

    def test_rogue_ap_detected(self, two_ap_runs):
        from repro.core.parameters import FrameSize

        genuine, rogue = two_ap_runs
        ap = next(mac for mac, name in genuine.station_names.items() if name == "ap-0")
        rogue_ap = next(
            mac for mac, name in rogue.station_names.items() if name == "ap-0"
        )
        # The rogue's beacons carry a different IE set (size) and come
        # from different hardware; size fingerprints expose it.
        detector = RogueApDetector(parameter=FrameSize(), min_observations=30)
        detector.learn(genuine.table(), ap)
        impersonated = FrameTable.from_frames(spoof_mac(rogue.captures, rogue_ap, ap))
        verdict = detector.check(impersonated, ap)
        assert verdict.is_rogue
        assert verdict.similarity < 0.6

    def test_similarity_is_the_one_row_entry(self, monkeypatch):
        ap = MacAddress.parse("00:0f:b5:00:00:01")
        reference = qos_data_signature(0.5, 0.5, 0)
        detector = RogueApDetector(accept_threshold=0.9)
        detector.use_reference(reference, ap)
        candidate = qos_data_signature(1, 0, 0)
        calls = count_match_calls(monkeypatch, "repro.applications.rogue_ap")
        verdict = detector.check_signature(candidate, ap)
        assert calls == [1]
        published = ReferenceDatabase()
        published.add(ap, reference)
        (row,) = batch_match_signatures([candidate], published)
        assert verdict.similarity == row[0]
        assert verdict.similarity == pytest.approx(0.5**0.5)
        assert verdict.is_rogue

    def test_check_before_learn(self):
        detector = RogueApDetector()
        with pytest.raises(RuntimeError):
            detector.check(
                FrameTable.from_frames([]), MacAddress.parse("00:0f:b5:00:00:01")
            )


class TestTracker:
    def test_links_randomized_mac(self, spoof_scenario):
        import random

        result, macs = spoof_scenario
        device = macs["legit-1"]
        boundary = 60e6
        train = result.table().slice_us(0.0, boundary)
        later = [c for c in result.captures if c.timestamp_us >= boundary]
        # The device randomises its MAC for the second half.
        pseudonym = device.randomized(random.Random(5))
        observed = FrameTable.from_frames(spoof_mac(later, device, pseudonym))
        tracker = DeviceTracker(min_observations=30, link_threshold=0.4)
        assert tracker.learn(train) >= 3
        report = tracker.track([observed])
        links = {link.pseudonym: link for link in report.links}
        assert pseudonym in links
        assert links[pseudonym].linked_device == device
        accuracy = report.linking_accuracy({pseudonym: device})
        assert accuracy == pytest.approx(1.0)

    def test_real_addresses_skipped(self, spoof_scenario):
        result, _macs = spoof_scenario
        tracker = DeviceTracker(min_observations=30)
        tracker.learn(result.table())
        assert tracker.track_window(result.table()) == []

    def test_track_window_matches_once(self, spoof_scenario, monkeypatch):
        """The batch entry matches every signature of the window in one
        call and links off those rows."""
        import random

        result, macs = spoof_scenario
        device = macs["legit-1"]
        later = [c for c in result.captures if c.timestamp_us >= 60e6]
        pseudonym = device.randomized(random.Random(5))
        window = FrameTable.from_frames(spoof_mac(later, device, pseudonym))
        tracker = DeviceTracker(min_observations=30, link_threshold=0.4)
        tracker.learn(result.table().slice_us(0.0, 60e6))
        calls = count_match_calls(monkeypatch, "repro.applications.tracker")
        links = tracker.track_window(window, window_index=2)
        signatures = tracker.builder.build_table(window)
        assert calls == [len(signatures)]
        assert [link.pseudonym for link in links] == [pseudonym]
        assert links == tracker.link_matches(
            matched(signatures, tracker.database, window_index=2)
        )

    def test_batch_port_equals_scalar_linking(self, spoof_scenario):
        """track_window's single batch call links like the per-pair
        Algorithm 1 loop, pseudonym by pseudonym."""
        import random

        result, macs = spoof_scenario
        boundary = 60e6
        train = result.table().slice_us(0.0, boundary)
        later = [c for c in result.captures if c.timestamp_us >= boundary]
        rng = random.Random(11)
        observed = later
        truth = {}
        for name in ("legit-1", "legit-2", "attacker"):
            pseudonym = macs[name].randomized(rng)
            observed = spoof_mac(observed, macs[name], pseudonym)
            truth[pseudonym] = macs[name]
        tracker = DeviceTracker(min_observations=30, link_threshold=0.4)
        tracker.learn(train)
        window = FrameTable.from_frames(observed)
        links = tracker.track_window(window, window_index=3)
        assert len(links) == len(truth)
        # Reference implementation: the scalar per-pseudonym loop.
        signatures = tracker.builder.build_table(window)
        for link in links:
            signature = signatures[link.pseudonym]
            similarities = oracles.scalar_match(signature, tracker.database)
            best_device, best_sim = oracles.first_maximum(similarities)
            if not (best_sim > 0.0 and best_sim >= tracker.link_threshold):
                best_device = None
            assert link.linked_device == best_device
            assert link.similarity == pytest.approx(best_sim, abs=1e-9)
            assert link.window_index == 3


class TestTrackerLinkRule:
    """``link_matches`` links a pseudonym to the first reference with
    its row's maximum score, and only when that maximum is above 0.0
    and at least ``link_threshold``."""

    PSEUDONYM = MacAddress.parse("02:00:00:00:00:01")  # locally administered
    OTHER_PSEUDONYM = MacAddress.parse("02:00:00:00:00:02")
    FIRST = MacAddress.parse("00:13:e8:00:00:01")
    SECOND = MacAddress.parse("00:18:f8:00:00:02")

    @staticmethod
    def _signature(ftype: str) -> Signature:
        return Signature(
            histograms={ftype: np.array([0.25, 0.5, 0.25])}, weights={ftype: 1.0}
        )

    def test_tie_links_the_earlier_registered_reference(self):
        first = MacAddress.parse("00:13:e8:00:00:01")
        second = MacAddress.parse("00:18:f8:00:00:02")
        signature = self._signature("QoS Data")
        tracker = DeviceTracker(link_threshold=0.5)
        tracker.database.add(first, signature)
        tracker.database.add(second, signature)
        (row,) = batch_match_signatures([signature], tracker.database)
        assert row[0] == row[1] > 0.5  # a true tie
        (link,) = tracker.link_matches(
            matched({self.PSEUDONYM: signature}, tracker.database)
        )
        assert link.linked_device == first
        assert link.similarity == row[0]

    def test_all_zero_row_stays_unlinked_at_zero_threshold(self):
        tracker = DeviceTracker(link_threshold=0.0)
        reference = MacAddress.parse("00:13:e8:00:00:01")
        tracker.database.add(reference, self._signature("Beacon"))
        candidate = self._signature("QoS Data")  # no frame type in common
        (row,) = batch_match_signatures([candidate], tracker.database)
        assert row.tolist() == [0.0]
        (link,) = tracker.link_matches(
            matched({self.PSEUDONYM: candidate}, tracker.database)
        )
        assert link.linked_device is None
        assert link.similarity == 0.0


    def test_one_call_per_window(self, monkeypatch):
        tracker = DeviceTracker(link_threshold=0.5)
        tracker.database.add(self.FIRST, qos_data_signature(1, 0, 0))
        tracker.database.add(self.SECOND, qos_data_signature(0, 1, 0))
        engine_calls = count_match_calls(monkeypatch, "repro.streaming.matcher")
        calls = count_match_calls(monkeypatch, "repro.applications.tracker")
        window = {
            self.PSEUDONYM: qos_data_signature(1, 0.1, 0),
            self.OTHER_PSEUDONYM: qos_data_signature(0.1, 1, 0),
            self.FIRST: qos_data_signature(1, 0, 0),  # a real address
        }
        links = tracker.link_matches(
            engine_match(window, set(window), tracker.database)
        )
        assert engine_calls == [3]  # the engine matches every candidate
        assert calls == []  # the rule reads the engine's rows
        assert [(link.pseudonym, link.linked_device) for link in links] == [
            (self.PSEUDONYM, self.FIRST),
            (self.OTHER_PSEUDONYM, self.SECOND),
        ]

    def test_below_threshold_stays_unlinked_with_its_similarity(self):
        tracker = DeviceTracker(link_threshold=0.8)
        tracker.database.add(self.FIRST, qos_data_signature(1, 0, 0))
        candidate = qos_data_signature(1, 1, 0)
        (row,) = batch_match_signatures([candidate], tracker.database)
        (link,) = tracker.link_matches(
            matched({self.PSEUDONYM: candidate}, tracker.database)
        )
        assert link.linked_device is None
        assert link.similarity == row[0] == pytest.approx(0.5**0.5)

    def test_empty_database_leaves_every_pseudonym_unlinked(self):
        tracker = DeviceTracker()
        links = tracker.link_matches(
            matched(
                {
                    self.PSEUDONYM: qos_data_signature(1, 0, 0),
                    self.OTHER_PSEUDONYM: qos_data_signature(0, 1, 0),
                },
                tracker.database,
            )
        )
        assert [(link.linked_device, link.similarity) for link in links] == [
            (None, 0.0),
            (None, 0.0),
        ]


class TestWindowSlices:
    """The table-input applications on a ``FrameTable.windows()`` slice
    report only the senders with rows in it, though the slice holds its
    parent's ``senders`` tuple, and agree with the same window interned
    alone."""

    AP = MacAddress.parse("00:0f:b5:00:00:01")
    A = MacAddress.parse("00:13:e8:00:00:0a")
    B = MacAddress.parse("00:18:f8:00:00:0b")
    P1 = MacAddress.parse("02:00:00:00:00:01")
    P2 = MacAddress.parse("02:00:00:00:00:02")

    def _frames(self):
        """``A`` and pseudonym ``P1`` talk in the first 10 s, ``B`` and
        ``P2`` in the next 10 s."""

        def talk(sender, start_us, gap_us, size):
            return [
                make_data_capture(start_us + i * gap_us, sender, self.AP, size=size)
                for i in range(80)
            ]

        frames = (
            talk(self.A, 0.0, 1000.0, 300)
            + talk(self.P1, 500.0, 1700.0, 900)
            + talk(self.B, 10e6, 1200.0, 600)
            + talk(self.P2, 10e6 + 300.0, 1500.0, 1200)
        )
        return sorted(frames, key=lambda c: c.timestamp_us)

    def test_window_slice_reports_only_its_senders(self):
        frames = self._frames()
        parent = FrameTable.from_frames(frames)
        early, late = parent.windows(10.0)
        assert late.senders == parent.senders  # all four, shared
        alone = FrameTable.from_frames(frames[len(early) :])

        detector = SpoofDetector(min_observations=20)
        assert detector.learn(parent, {self.A, self.B}) == {self.A, self.B}
        checks = detector.check_window(late)
        assert {check.device for check in checks} == {self.B, self.P2}
        assert checks == detector.check_window(alone)

        tracker = DeviceTracker(min_observations=20, link_threshold=0.0)
        real = [parent.sender_code(self.A), parent.sender_code(self.B)]
        assert tracker.learn(parent.select(np.isin(parent.sender_idx, real))) == 2
        links = tracker.track_window(late, window_index=1)
        assert [link.pseudonym for link in links] == [self.P2]
        assert links == tracker.track_window(alone, window_index=1)


class TestApplicationsAcceptLoadedDatabase:
    """The detectors' ``database=`` seam: a store round-tripped through
    disk gives the same verdicts and links as the learner's own
    database."""

    @staticmethod
    def round_trip(database, path):
        save_database(database, path)
        return load_database(path).database

    def test_spoof_detector_with_loaded_database(self, small_office_trace, tmp_path):
        table = small_office_trace.table()
        half = len(table) // 2
        learner = SpoofDetector(min_observations=30)
        allowed = {
            sender for sender in small_office_trace.senders() if sender is not None
        }
        learner.learn(table.slice_rows(0, half), allowed)
        guarded = SpoofDetector(
            min_observations=30,
            database=self.round_trip(learner.database, tmp_path / "store"),
        )
        window = table.slice_rows(half, len(table))
        plain_checks = learner.check_window(window)
        loaded_checks = guarded.check_window(window)
        assert [(c.device, c.verdict) for c in loaded_checks] == [
            (c.device, c.verdict) for c in plain_checks
        ]
        assert any(c.verdict is SpoofVerdict.GENUINE for c in loaded_checks)

    def test_tracker_with_loaded_database(self, small_office_trace, tmp_path):
        import random

        frames = small_office_trace.frames
        half = len(frames) // 2
        learner = DeviceTracker(min_observations=30)
        learner.learn(small_office_trace.table().slice_rows(0, half))
        tracker = DeviceTracker(
            min_observations=30,
            database=self.round_trip(learner.database, tmp_path / "store"),
        )
        rng = random.Random(9)
        pseudonym_of: dict = {}
        pseudonymous = []
        for frame in frames[half:]:
            sender = frame.sender
            if sender is None or not frame.frame.subtype.has_transmitter_address:
                pseudonymous.append(frame)
                continue
            if sender not in pseudonym_of:
                pseudonym_of[sender] = sender.randomized(rng)
            pseudonymous.append(frame.with_sender(pseudonym_of[sender]))
        window = FrameTable.from_frames(pseudonymous)
        links = tracker.link_matches(
            matched(tracker.builder.build_table(window), tracker.database)
        )
        plain_links = learner.link_matches(
            matched(learner.builder.build_table(window), learner.database)
        )
        assert links  # the office devices are active enough to link
        assert [(link.pseudonym, link.linked_device) for link in links] == [
            (link.pseudonym, link.linked_device) for link in plain_links
        ]


class TestAttackModels:
    def test_spoof_mac_rewrites_only_attacker(self, spoof_scenario):
        result, macs = spoof_scenario
        rewritten = spoof_mac(result.captures, macs["attacker"], macs["legit-1"])
        assert all(c.sender != macs["attacker"] for c in rewritten)
        assert len(rewritten) == len(result.captures)

    def test_replay_insertion_density(self, spoof_scenario):
        result, _macs = spoof_scenario
        genuine = result.captures[:2000]
        merged = replay_with_insertions(genuine, insertion_rate_hz=10.0, seed=9)
        assert len(merged) > len(genuine)
        times = [c.timestamp_us for c in merged]
        assert times == sorted(times)

    def test_pollute_training_volume(self, spoof_scenario):
        result, macs = spoof_scenario
        polluted = pollute_training(
            result.captures,
            attacker=macs["attacker"],
            victim=macs["legit-1"],
            pollution_fraction=0.5,
        )
        victim_before = sum(1 for c in result.captures if c.sender == macs["legit-1"])
        victim_after = sum(1 for c in polluted if c.sender == macs["legit-1"])
        assert victim_after == victim_before + int(victim_before * 0.5)

    def test_inject_fake_frames_perturbs(self, spoof_scenario):
        result, macs = spoof_scenario
        window = result.captures[:3000]
        attacked = inject_fake_frames(window, [macs["legit-1"]], injection_rate_hz=50.0)
        assert len(attacked) > len(window)
        times = [c.timestamp_us for c in attacked]
        assert times == sorted(times)

    def test_inject_requires_victims(self, spoof_scenario):
        result, _macs = spoof_scenario
        with pytest.raises(ValueError):
            inject_fake_frames(result.captures[:100], [])

    def test_replay_perturbs_interarrival_signature(self, spoof_scenario):
        """The paper's point: inserted traffic shifts the timing
        signature, restricting attacker capacity."""
        from repro.core.signature import SignatureBuilder
        from repro.core.similarity import cosine_similarity

        result, macs = spoof_scenario
        victim = macs["legit-1"]
        builder = SignatureBuilder(InterArrivalTime(), min_observations=30)
        original = builder.build_table(result.table()).get(victim)
        heavy = replay_with_insertions(
            [c for c in result.captures if c.sender == victim or c.sender is None],
            insertion_rate_hz=100.0,
        )
        replayed = builder.build_table(FrameTable.from_frames(heavy)).get(victim)
        assert original is not None and replayed is not None
        shared = original.frame_types & replayed.frame_types
        sims = [
            cosine_similarity(original.histograms[f], replayed.histograms[f])
            for f in shared
        ]
        assert min(sims) < 0.98  # the insertions measurably moved it
