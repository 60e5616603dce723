"""Section VI: factors shaping the inter-arrival histogram.

Each function reproduces one controlled experiment from the paper,
using the simulator in place of the physical testbed:

* :func:`backoff_experiment` — Figure 4: two cards with different
  random-backoff implementations, alone in a "Faraday cage"
  (noiseless channel), saturated UDP at a fixed 54 Mbps;
* :func:`rts_experiment` — Figure 5: the same station with virtual
  carrier sensing off vs an RTS threshold of 2000 bytes, in a busy
  environment;
* :func:`rate_experiment` — Figure 6: a rate-stable vs a rate-switching
  device, with both inter-arrival signatures and rate distributions;
* :func:`services_experiment` — Figure 7: two *identical* netbooks
  separable purely through their OS service mix (broadcast data only);
* :func:`psm_experiment` — Figure 8: two cards' power-save
  null-function cadences.

Following the paper's method, values are measured on the **full
channel timeline** (the previous frame may be anyone's) and then
restricted to the frame subset each figure names.

Measurement runs on the simulation's columnar
:class:`~repro.traces.table.FrameTable` view
(:meth:`SimulationResult.table`): the timeline inter-arrivals are the
inter-arrival parameter's ``observe_table`` values selected by sender,
and each figure's frame subset is a row mask built from
:mod:`repro.traces.filters`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.histogram import BinSpec, CategoricalBins, Histogram, UniformBins
from repro.core.parameters import InterArrivalTime
from repro.dot11.mac import MacAddress
from repro.dot11.phy import PAPER_RATE_AXIS
from repro.simulator.channel import ChannelModel
from repro.simulator.profiles import (
    BackoffStyle,
    DeviceProfile,
    PowerSaveBehaviour,
    ProbeBehaviour,
    RateAlgorithm,
    profile_by_name,
)
from repro.simulator.scenario import Scenario, StationSpec
from repro.simulator.traffic import CbrTraffic, IgmpService, LlmnrService, MdnsService, SsdpService, WebTraffic
from repro.traces import filters
from repro.traces.table import FrameTable


@dataclass
class FactorExperimentResult:
    """Histograms produced by one Section VI experiment."""

    title: str
    bins: BinSpec
    histograms: dict[str, np.ndarray] = field(default_factory=dict)
    #: Companion histograms (e.g. Figure 6's rate distributions).
    companions: dict[str, tuple[np.ndarray, BinSpec]] = field(default_factory=dict)
    observation_counts: dict[str, int] = field(default_factory=dict)

    def distinctiveness(self) -> float:
        """1 − min pairwise cosine similarity across the histograms.

        A quick scalar answering "did the factor separate the
        devices?" — higher is more distinctive.
        """
        from repro.core.similarity import cosine_similarity

        labels = list(self.histograms)
        if len(labels) < 2:
            return 0.0
        worst = 1.0
        for i, a in enumerate(labels):
            for b in labels[i + 1 :]:
                worst = min(
                    worst, cosine_similarity(self.histograms[a], self.histograms[b])
                )
        return 1.0 - worst


def timeline_interarrivals(
    table: FrameTable,
    sender: MacAddress,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """Inter-arrivals on the full timeline, restricted to a sender and
    an optional row mask — the paper's Figure 4/7/8 measurement.

    The values are :class:`InterArrivalTime`'s observations: the
    previous frame may be anyone's, and ``mask`` (built from
    :mod:`repro.traces.filters`) only decides which of the sender's
    frames yield a value.
    """
    observed = InterArrivalTime().observe_table(table)
    keep = observed.sender_idx == table.sender_code(sender)
    if mask is not None:
        keep &= mask[observed.positions]
    return observed.values[keep]


def _histogram_of(values: np.ndarray | list[float], bins: BinSpec) -> np.ndarray:
    histogram = Histogram(bins)
    histogram.add_array(np.asarray(values, dtype=np.float64))
    return histogram.frequencies()


def _fixed54_profile(
    name: str,
    backoff_style: BackoffStyle,
    difs_offset_us: float,
    cw_min: int = 15,
) -> DeviceProfile:
    """A quiet profile pinned at 54 Mbps for cage experiments."""
    return DeviceProfile(
        name=name,
        oui="00:13:e8",
        backoff_style=backoff_style,
        cw_min=cw_min,
        difs_offset_us=difs_offset_us,
        timing_jitter_us=0.6,
        rts_threshold=None,
        rate_algorithm=RateAlgorithm.FIXED_54,
        power_save=PowerSaveBehaviour(enabled=False),
        probes=ProbeBehaviour(period_s=1e6),  # effectively no scans
    )


def _run_cage(
    profile: DeviceProfile,
    duration_s: float,
    seed: int,
    interval_ms: float = 0.4,
) -> tuple[FrameTable, MacAddress]:
    """One station saturating a noiseless channel (the Faraday cage)."""
    scenario = Scenario(
        duration_s=duration_s,
        seed=seed,
        channel_model=ChannelModel(noiseless=True),
        area_m=10.0,
        ap_count=1,
    )
    scenario.add_station(
        StationSpec(
            name="cage-device",
            profile=profile,
            sources=[CbrTraffic(payload=1470, interval_ms=interval_ms, jitter_ms=0.02)],
            auto_services=False,
        )
    )
    result = scenario.run()
    sender = next(
        mac for mac, name in result.station_names.items() if name == "cage-device"
    )
    return result.table(), sender


def backoff_experiment(
    duration_s: float = 8.0, seed: int = 42
) -> FactorExperimentResult:
    """Figure 4: backoff quirks under saturation in a Faraday cage.

    Only first transmissions (no retries) of data frames at 54 Mbps
    count, as in the paper.
    """
    bins = UniformBins(lo=250.0, hi=700.0, width=4.0, drop_outside=True)
    device_a = _fixed54_profile(
        "standard-backoff", BackoffStyle.UNIFORM, difs_offset_us=0.0
    )
    device_b = _fixed54_profile(
        "early-slot-backoff", BackoffStyle.EXTRA_EARLY_SLOT, difs_offset_us=2.0
    )
    result = FactorExperimentResult(title="Figure 4: random backoff", bins=bins)
    for label, profile in (("device-1", device_a), ("device-2", device_b)):
        table, sender = _run_cage(profile, duration_s, seed)
        mask = (
            filters.data_frames_only(table)
            & filters.first_transmissions_only(table)
            & filters.sent_at_rate(table, 54.0)
        )
        values = timeline_interarrivals(table, sender, mask)
        result.histograms[label] = _histogram_of(values, bins)
        result.observation_counts[label] = len(values)
    return result


def rts_experiment(duration_s: float = 20.0, seed: int = 17) -> FactorExperimentResult:
    """Figure 5: virtual carrier sensing off vs RTS threshold 2000 B.

    The same station profile, in a busy environment (background
    stations), run twice with different RTS settings.
    """
    bins = UniformBins(lo=0.0, hi=2000.0, width=25.0, drop_outside=True)
    result = FactorExperimentResult(title="Figure 5: RTS settings", bins=bins)
    for label, threshold in (("rts-off", None), ("rts-2000", 1400)):
        base = _fixed54_profile("rts-station", BackoffStyle.UNIFORM, 0.0)
        profile = DeviceProfile(
            name=f"rts-station-{label}",
            oui=base.oui,
            backoff_style=base.backoff_style,
            cw_min=base.cw_min,
            difs_offset_us=base.difs_offset_us,
            timing_jitter_us=base.timing_jitter_us,
            rts_threshold=threshold,
            rate_algorithm=base.rate_algorithm,
            power_save=base.power_save,
            probes=base.probes,
        )
        scenario = Scenario(
            duration_s=duration_s,
            seed=seed,
            channel_model=ChannelModel(shadowing_sigma_db=1.5),
            area_m=25.0,
        )
        scenario.add_station(
            StationSpec(
                name="subject",
                profile=profile,
                sources=[CbrTraffic(payload=1470, interval_ms=2.0)],
                auto_services=False,
            )
        )
        for background in range(3):
            scenario.add_station(
                StationSpec(
                    name=f"background-{background}",
                    profile=profile_by_name("intel-2200bg-linux"),
                    sources=[WebTraffic(mean_think_s=2.0)],
                )
            )
        run = scenario.run()
        sender = next(
            mac for mac, name in run.station_names.items() if name == "subject"
        )
        table = run.table()
        values = timeline_interarrivals(table, sender, filters.data_frames_only(table))
        result.histograms[label] = _histogram_of(values, bins)
        result.observation_counts[label] = len(values)
    return result


def rate_experiment(duration_s: float = 15.0, seed: int = 23) -> FactorExperimentResult:
    """Figure 6: a rate-stable vs a rate-switching device.

    Companions hold the transmission-rate distributions (Figures
    6c/6d); the main histograms are the inter-arrival signatures over
    all rates (Figures 6a/6b).
    """
    bins = UniformBins(lo=0.0, hi=1000.0, width=10.0, drop_outside=True)
    rate_bins = CategoricalBins(categories=tuple(float(r) for r in PAPER_RATE_AXIS))
    result = FactorExperimentResult(title="Figure 6: transmission rates", bins=bins)
    stable = _fixed54_profile("rate-stable", BackoffStyle.UNIFORM, 0.0)
    switching = DeviceProfile(
        name="rate-switching",
        oui="00:26:82",
        backoff_style=BackoffStyle.UNIFORM,
        cw_min=15,
        difs_offset_us=0.0,
        timing_jitter_us=0.6,
        rate_algorithm=RateAlgorithm.SNR_JITTERY,
        power_save=PowerSaveBehaviour(enabled=False),
        probes=ProbeBehaviour(period_s=1e6),
    )
    for label, profile in (("device-1", stable), ("device-2", switching)):
        scenario = Scenario(
            duration_s=duration_s,
            seed=seed,
            channel_model=ChannelModel(noiseless=False, shadowing_sigma_db=5.0),
            area_m=18.0,
        )
        scenario.add_station(
            StationSpec(
                name="subject",
                profile=profile,
                sources=[CbrTraffic(payload=1470, interval_ms=1.0)],
                auto_services=False,
            )
        )
        run = scenario.run()
        sender = next(
            mac for mac, name in run.station_names.items() if name == "subject"
        )
        table = run.table()
        data = filters.data_frames_only(table)
        values = timeline_interarrivals(table, sender, data)
        result.histograms[label] = _histogram_of(values, bins)
        result.observation_counts[label] = len(values)
        rates_mask = (table.sender_idx == table.sender_code(sender)) & data
        result.companions[f"{label}-rates"] = (
            _histogram_of(table.rate_mbps[rates_mask], rate_bins),
            rate_bins,
        )
    return result


def services_experiment(
    duration_s: float = 600.0, seed: int = 31
) -> FactorExperimentResult:
    """Figure 7: identical netbooks with different OS service mixes.

    Both run simultaneously in the same environment with the same
    card/driver profile; histograms use broadcast data frames only.
    """
    bins = UniformBins(lo=0.0, hi=2500.0, width=50.0, drop_outside=True)
    result = FactorExperimentResult(title="Figure 7: network services", bins=bins)
    profile = profile_by_name("intel-2200bg-linux")
    scenario = Scenario(
        duration_s=duration_s,
        seed=seed,
        channel_model=ChannelModel(shadowing_sigma_db=1.5),
        area_m=20.0,
    )
    scenario.add_station(
        StationSpec(
            name="netbook-1",
            profile=profile,
            sources=[
                WebTraffic(mean_think_s=10.0),
                SsdpService(period_s=30.0),
                IgmpService(period_s=125.0),
            ],
            auto_services=False,
        )
    )
    scenario.add_station(
        StationSpec(
            name="netbook-2",
            profile=profile,
            sources=[
                WebTraffic(mean_think_s=10.0),
                LlmnrService(mean_period_s=20.0),
                MdnsService(period_s=45.0),
            ],
            auto_services=False,
        )
    )
    run = scenario.run()
    table = run.table()
    broadcast_data = filters.broadcast_data_only(table)
    for label in ("netbook-1", "netbook-2"):
        sender = next(mac for mac, name in run.station_names.items() if name == label)
        values = timeline_interarrivals(table, sender, broadcast_data)
        result.histograms[label] = _histogram_of(values, bins)
        result.observation_counts[label] = len(values)
    return result


def psm_experiment(duration_s: float = 600.0, seed: int = 57) -> FactorExperimentResult:
    """Figure 8: power-save null-function cadence of two cards."""
    bins = UniformBins(lo=0.0, hi=2500.0, width=50.0, drop_outside=True)
    result = FactorExperimentResult(title="Figure 8: power save", bins=bins)
    scenario = Scenario(
        duration_s=duration_s,
        seed=seed,
        channel_model=ChannelModel(shadowing_sigma_db=1.5),
        area_m=20.0,
    )
    scenario.add_station(
        StationSpec(
            name="card-1",
            profile=profile_by_name("apple-bcm4321-osx"),
            sources=[WebTraffic(mean_think_s=12.0)],
        )
    )
    scenario.add_station(
        StationSpec(
            name="card-2",
            profile=profile_by_name("broadcom-4318-win"),
            sources=[WebTraffic(mean_think_s=12.0)],
        )
    )
    run = scenario.run()
    table = run.table()
    null_function = filters.null_function_only(table)
    for label in ("card-1", "card-2"):
        sender = next(mac for mac, name in run.station_names.items() if name == label)
        values = timeline_interarrivals(table, sender, null_function)
        result.histograms[label] = _histogram_of(values, bins)
        result.observation_counts[label] = len(values)
    return result
