"""Tests for the Section VI factor experiments and text rendering."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.analysis.factors import (
    backoff_experiment,
    psm_experiment,
    rate_experiment,
    rts_experiment,
    services_experiment,
    timeline_interarrivals,
)
from repro.analysis.plots import render_curve, render_histogram, render_table
from repro.core.histogram import UniformBins
from repro.dot11.mac import MacAddress
from repro.traces import filters
from repro.traces.filters import sent_at_rate
from repro.traces.table import FrameTable
from tests import oracles
from tests.conftest import make_data_capture
from tests.test_table import AP as TABLE_AP
from tests.test_table import SENDERS, capture_sequences

A = MacAddress.parse("00:13:e8:00:00:0a")
B = MacAddress.parse("00:18:f8:00:00:0b")
AP = MacAddress.parse("00:0f:b5:00:00:01")


class TestTimelineInterarrivals:
    def test_full_timeline_previous_frame(self):
        frames = [
            make_data_capture(1000.0, B, AP),
            make_data_capture(1400.0, A, AP),
            make_data_capture(2000.0, A, AP),
        ]
        values = timeline_interarrivals(FrameTable.from_frames(frames), A)
        assert values.tolist() == [pytest.approx(400.0), pytest.approx(600.0)]

    def test_mask_restricts_observations(self):
        frames = [
            make_data_capture(1000.0, A, AP, rate=54.0),
            make_data_capture(1500.0, A, AP, rate=11.0),
            make_data_capture(2100.0, A, AP, rate=54.0),
        ]
        table = FrameTable.from_frames(frames)
        values = timeline_interarrivals(table, A, sent_at_rate(table, 54.0))
        assert values.tolist() == [pytest.approx(600.0)]

    @given(frames=capture_sequences())
    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    def test_matches_per_frame_oracle_under_every_frame_rule(self, frames):
        """Bit for bit, for every sender (and one absent from the
        capture), unmasked and under each Section VI frame rule."""
        table = FrameTable.from_frames(frames)
        cases = [(None, lambda captured: True)]
        for name, rule in oracles.FRAME_RULES.items():
            if name == "sent_at_rate":
                for rate in (1.0, 11.0, 54.0):
                    cases.append(
                        (
                            filters.sent_at_rate(table, rate),
                            lambda captured, rule=rule, rate=rate: rule(captured, rate),
                        )
                    )
            else:
                cases.append((getattr(filters, name)(table), rule))
        for sender in SENDERS + [TABLE_AP, B]:
            for mask, keep in cases:
                values = timeline_interarrivals(table, sender, mask)
                assert values.dtype == np.float64
                assert values.tolist() == oracles.timeline_interarrivals(
                    frames, sender, keep
                )


class TestBackoffExperiment:
    def test_devices_distinguishable(self):
        result = backoff_experiment(duration_s=4.0)
        assert set(result.histograms) == {"device-1", "device-2"}
        assert result.observation_counts["device-1"] > 200
        assert result.distinctiveness() > 0.02

    def test_early_slot_visible(self):
        """Device 2's extra early slot puts mass before device 1's
        earliest possible access time."""
        result = backoff_experiment(duration_s=4.0)
        h1 = result.histograms["device-1"]
        h2 = result.histograms["device-2"]
        first_1 = int(np.argmax(h1 > 0))
        first_2 = int(np.argmax(h2 > 0))
        assert first_2 < first_1

    def test_slot_comb_structure(self):
        """Saturated inter-arrivals form a comb at the slot spacing."""
        result = backoff_experiment(duration_s=4.0)
        h1 = result.histograms["device-1"]
        occupied = np.flatnonzero(h1 > 0.005)
        assert len(occupied) >= 8  # many slots visible
        # Gaps between occupied bins cluster at the 20 µs slot / 4 µs bin.
        gaps = np.diff(occupied)
        assert np.median(gaps) == pytest.approx(5, abs=1)


class TestRtsExperiment:
    def test_settings_change_histogram(self):
        result = rts_experiment(duration_s=8.0)
        assert set(result.histograms) == {"rts-off", "rts-2000"}
        assert result.distinctiveness() > 0.05

    def test_rts_mode_shifts_mass_down(self):
        """With RTS on, data frames follow SIFS-spaced CTS, so the
        data-frame inter-arrival concentrates at short values."""
        result = rts_experiment(duration_s=8.0)
        bins = result.bins
        centre = lambda h: float(
            np.sum(h * (np.arange(len(h)) * bins.width + bins.lo))
        )
        assert centre(result.histograms["rts-2000"]) < centre(
            result.histograms["rts-off"]
        )


class TestRateExperiment:
    def test_rate_distributions_differ(self):
        result = rate_experiment(duration_s=6.0)
        stable, stable_bins = result.companions["device-1-rates"]
        switching, _ = result.companions["device-2-rates"]
        # Device 1 concentrates on one rate; device 2 spreads.
        assert (stable > 0.01).sum() <= 2
        assert (switching > 0.01).sum() >= 3

    def test_interarrival_signatures_differ(self):
        result = rate_experiment(duration_s=6.0)
        assert result.distinctiveness() > 0.05


class TestServicesExperiment:
    def test_identical_netbooks_separable(self):
        result = services_experiment(duration_s=240.0)
        assert result.observation_counts["netbook-1"] > 10
        assert result.observation_counts["netbook-2"] > 10
        assert result.distinctiveness() > 0.1


class TestPsmExperiment:
    def test_cards_produce_null_frames(self):
        result = psm_experiment(duration_s=240.0)
        assert result.observation_counts["card-1"] > 10
        assert result.observation_counts["card-2"] > 10


class TestRendering:
    def test_histogram_bars(self):
        bins = UniformBins(lo=0, hi=40, width=10)
        text = render_histogram(
            np.array([0.5, 0.25, 0.25, 0.0]), bins, title="demo"
        )
        assert "demo" in text
        assert "[0,10)" in text
        assert "█" in text

    def test_histogram_csv(self):
        bins = UniformBins(lo=0, hi=20, width=10)
        csv = render_histogram(np.array([0.4, 0.6]), bins, as_csv=True)
        lines = csv.splitlines()
        assert lines[0] == "bin,frequency"
        assert len(lines) == 3

    def test_histogram_shape_validation(self):
        bins = UniformBins(lo=0, hi=20, width=10)
        with pytest.raises(ValueError):
            render_histogram(np.zeros(5), bins)

    def test_curve_listing(self):
        text = render_curve([0.0, 0.5, 1.0], [0.0, 0.8, 1.0])
        assert "FPR" in text and "TPR" in text
        assert "0.8000" in text

    def test_curve_csv(self):
        csv = render_curve([0.1], [0.9], as_csv=True)
        assert csv.splitlines()[1] == "0.100000,0.900000"

    def test_curve_empty(self):
        assert "empty" in render_curve([], [])

    def test_table(self):
        text = render_table(
            ["name", "auc"], [["office", "0.95"], ["conference", "0.88"]],
            title="Table II",
        )
        assert "Table II" in text
        assert "conference" in text

    def test_table_width_validation(self):
        with pytest.raises(ValueError):
            render_table(["a"], [["x", "y"]])
