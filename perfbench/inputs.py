"""Seeded input generators for the benchmark workloads.

Every input is a pure function of the workload seed, so two runs with
the same seed feed the program byte-identical data.  Captures are
generated as columns (the simulator runs at tens of thousands of frames
per second, far too slow to feed two million frames) and cut into
fixed-size chunks that are interned per chunk, the way
``repro.radiotap.pcap.iter_trace_tables`` hands chunks to a live engine.

A synthetic capture models a busy channel under the inter-arrival
parameter: each frame's gap to its predecessor on the channel is drawn
from its sender's own gap distribution, and each sender has its own
frame-type mix, so senders have distinct signatures.  Activity follows
a Zipf law over an active set that drifts through the device
population, so each window holds a few hundred senders of which only
the busiest clear the minimum-observation gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Frame-type labels of attributable rows; ACK rows use :data:`ACK`.
FRAME_TYPES = ("QoS Data", "Data", "Null", "Probe Request")
ACK = "ACK"
RATES_MBPS = np.array([1.0, 2.0, 5.5, 11.0, 6.0, 12.0, 24.0, 54.0])

#: Locally administered OUI prefix for synthetic devices.
MAC_BASE = 0x02_42_00_00_00_00

COLUMNS = ("timestamp_us", "size", "rate_mbps", "device", "ftype")


@dataclass(frozen=True)
class CaptureSpec:
    """Shape of one synthetic capture."""

    frames: int
    #: Devices the active set drifts through (MACs ``MAC_BASE + 0..n-1``
    #: offset by ``first_device``).
    population: int
    #: Devices active at once.
    active: int
    #: Frames between shifts of the active set.
    epoch_frames: int
    #: Devices the active set moves by per epoch.
    drift: int
    first_device: int = 0
    ack_share: float = 0.15
    zipf: float = 0.9


def device_profiles(seed: int, count: int) -> dict[str, np.ndarray]:
    """Per-device gap distribution and frame-type mix.

    Profiles depend only on ``(seed, device number)`` so captures that
    share devices (training and live, or two sensors) agree on how each
    device behaves.
    """
    rng = np.random.default_rng([seed, 7])
    mix = rng.dirichlet(np.full(len(FRAME_TYPES), 0.7), size=count)
    return {
        "gap_mean_us": rng.uniform(400.0, 2000.0, size=count),
        "gap_sd_us": rng.uniform(40.0, 400.0, size=count),
        "mix_cdf": np.cumsum(mix, axis=1),
    }


def synthetic_capture(seed: int, stream: int, spec: CaptureSpec) -> dict[str, np.ndarray]:
    """One capture as global columns (device numbers, -1 for ACK rows).

    ``stream`` separates independent captures drawn under one seed.
    """
    rng = np.random.default_rng([seed, stream])
    n = spec.frames
    profiles = device_profiles(seed, spec.first_device + spec.population)
    weights = 1.0 / np.arange(1, spec.active + 1) ** spec.zipf
    rank = rng.choice(spec.active, size=n, p=weights / weights.sum())
    epoch = np.arange(n) // spec.epoch_frames
    device = spec.first_device + (epoch * spec.drift + rank) % spec.population
    is_ack = rng.random(n) < spec.ack_share
    device[is_ack] = -1
    attributable = ~is_ack
    owner = device[attributable]
    gaps = rng.uniform(10.0, 60.0, size=n)
    gaps[attributable] = np.abs(
        rng.normal(profiles["gap_mean_us"][owner], profiles["gap_sd_us"][owner])
    ) + 10.0
    ftype = np.full(n, len(FRAME_TYPES), dtype=np.int64)
    draw = rng.random(n)[attributable]
    picked = (draw[:, None] > profiles["mix_cdf"][owner]).sum(axis=1)
    ftype[attributable] = np.minimum(picked, len(FRAME_TYPES) - 1)
    return {
        "timestamp_us": 1_000_000.0 + np.cumsum(gaps),
        "size": rng.integers(14, 1500, size=n).astype(np.float64),
        "rate_mbps": RATES_MBPS[rng.integers(0, len(RATES_MBPS), size=n)],
        "device": device.astype(np.int64),
        "ftype": ftype,
    }


def _first_seen(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unique values of ``codes`` in first-appearance order, and each
    row's index into them."""
    values, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return values[order], rank[inverse]


def chunk_tables(capture: dict[str, np.ndarray], chunk_frames: int) -> list:
    """Cut a capture into ``FrameTable`` chunks, each interned on its own.

    Senders and frame types are numbered in first-appearance order
    within the chunk, exactly as ``FrameTable.from_frames`` numbers a
    capture source's batch.
    """
    from repro.dot11.mac import MacAddress
    from repro.traces.table import FrameTable

    labels = (*FRAME_TYPES, ACK)
    chunks = []
    total = len(capture["timestamp_us"])
    for lo in range(0, total, chunk_frames):
        hi = min(lo + chunk_frames, total)
        device = capture["device"][lo:hi]
        sender_idx = np.full(hi - lo, -1, dtype=np.int64)
        known = device >= 0
        devices, local = _first_seen(device[known])
        sender_idx[known] = local
        ftypes, ftype_idx = _first_seen(capture["ftype"][lo:hi])
        chunks.append(
            FrameTable(
                timestamp_us=capture["timestamp_us"][lo:hi].copy(),
                size=capture["size"][lo:hi].copy(),
                rate_mbps=capture["rate_mbps"][lo:hi].copy(),
                sender_idx=sender_idx,
                ftype_idx=ftype_idx.astype(np.int64),
                senders=tuple(MacAddress(MAC_BASE + int(d)) for d in devices),
                ftype_keys=tuple(labels[int(f)] for f in ftypes),
            )
        )
    return chunks


def whole_table(capture: dict[str, np.ndarray]):
    """The whole capture as one ``FrameTable`` (one intern)."""
    return chunk_tables(capture, len(capture["timestamp_us"]))[0]


def save_capture(capture: dict[str, np.ndarray], directory: Path) -> Path:
    """Write a capture as one ``.npy`` file per column (byte-stable)."""
    directory.mkdir(parents=True, exist_ok=True)
    for name in COLUMNS:
        np.save(directory / f"{name}.npy", capture[name], allow_pickle=False)
    return directory


def load_capture(directory: Path) -> dict[str, np.ndarray]:
    return {
        name: np.load(directory / f"{name}.npy", allow_pickle=False)
        for name in COLUMNS
    }


# -- workload inputs ------------------------------------------------------

#: scenario-matrix runs the presets at half their station counts, so a
#: run holds several passes.
MATRIX_SCALE = 0.5

#: live-stream: 660k frames over ~68 ten-second windows per pass, a few
#: hundred senders per window, 2048 known devices plus 128 the store
#: lacks.  A short pass lets a run hold about a dozen of them, and the
#: three fastest still pool over 200 windows.
LIVE_CAPTURE = CaptureSpec(
    frames=660_000,
    population=2048 + 128,
    active=320,
    epoch_frames=10_000,
    drift=24,
)
#: Training capture behind the live-stream reference store: every one of
#: the 2048 known devices active long enough to clear the gate.
LIVE_TRAINING = CaptureSpec(
    frames=2048 * 100,
    population=2048,
    active=2048,
    epoch_frames=2048 * 100,
    drift=0,
    zipf=0.0,
)
LIVE_PARAMETER = "interarrival"
LIVE_WINDOW_S = 10.0
LIVE_MIN_OBSERVATIONS = 50
CHUNK_FRAMES = 8192

#: sensor-fleet: two sensors over overlapping device pools, into the
#: ``serve`` defaults (4 shards, 8-chunk queues) with periodic
#: checkpoints (about eight per sensor).
FLEET_SENSORS = ("sensor-a", "sensor-b")
FLEET_FRAMES = 600_000
FLEET_SHARDS = 4
FLEET_QUEUE_CHUNKS = 8
FLEET_CHECKPOINT_EVERY = 9


def fleet_capture_spec(sensor_number: int) -> CaptureSpec:
    return CaptureSpec(
        frames=FLEET_FRAMES,
        population=48,
        active=48,
        epoch_frames=FLEET_FRAMES,
        drift=0,
        first_device=24 * sensor_number,
        zipf=0.5,
    )


def write_live_inputs(seed: int, directory: Path) -> None:
    """The live capture and the reference store it is matched against."""
    from repro.core.database import ReferenceDatabase
    from repro.core.parameters import parameter_by_name
    from repro.core.signature import SignatureBuilder
    from repro.persistence.store import save_database

    save_capture(synthetic_capture(seed, 1, LIVE_CAPTURE), directory / "capture")
    training = whole_table(synthetic_capture(seed, 2, LIVE_TRAINING))
    builder = SignatureBuilder(
        parameter_by_name(LIVE_PARAMETER), min_observations=LIVE_MIN_OBSERVATIONS
    )
    database = ReferenceDatabase.from_training_table(builder, training)
    save_database(database, directory / "store", parameter=LIVE_PARAMETER)


def write_fleet_inputs(seed: int, directory: Path) -> None:
    """One capture per sensor."""
    for number, sensor in enumerate(FLEET_SENSORS):
        save_capture(
            synthetic_capture(seed, 10 + number, fleet_capture_spec(number)),
            directory / sensor,
        )
