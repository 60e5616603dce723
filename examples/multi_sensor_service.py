#!/usr/bin/env python3
"""Multi-sensor ingest service: three sensors, one shared database.

Simulates three sensor sites (different station mixes), streams each
site's capture to a running :class:`~repro.service.IngestServer` as a
concurrent TCP session — columnar chunks on the checksummed wire
format — and publishes the merged shard-partitioned reference
database. Along the way one sensor "crashes" mid-session and resumes
from its server-side checkpoint, replaying event-for-event as if
nothing happened (DESIGN.md §9).

Run:  python examples/multi_sensor_service.py
"""

from __future__ import annotations

import tempfile
import threading
from pathlib import Path

from repro.core.parameters import InterArrivalTime
from repro.persistence import load_database
from repro.service import IngestServer, SensorSession, ServiceConfig
from repro.simulator import CbrTraffic, Scenario, StationSpec, WebTraffic
from repro.streaming import WindowConfig, replay_chunk_source
from repro.traces import Trace


def simulate_site(name: str, seed: int, profiles: list[str]) -> Trace:
    """One sensor site: a few stations with distinct wireless cards."""
    scenario = Scenario(duration_s=40.0, seed=seed, encrypted=True)
    for index, profile in enumerate(profiles):
        scenario.add_station(
            StationSpec(
                name=f"{name}-sta{index}",
                profile=profile,
                sources=[CbrTraffic(interval_ms=25 + 15 * index),
                         WebTraffic(mean_think_s=4.0)],
            )
        )
    return scenario.run().trace(name=name, encrypted=True)


def main() -> None:
    # --- 1. Three sensor sites, three captures ----------------------
    sites = {
        "floor1": simulate_site(
            "floor1", 21, ["intel-2200bg-linux", "broadcom-4318-win"]
        ),
        "floor2": simulate_site(
            "floor2", 22, ["atheros-ar5212-madwifi", "intel-2200bg-linux"]
        ),
        "lobby": simulate_site(
            "lobby", 23, ["broadcom-4318-win", "atheros-ar5212-madwifi"]
        ),
    }
    chunks = {
        sensor: list(replay_chunk_source(trace.table(), chunk_frames=512))
        for sensor, trace in sites.items()
    }

    # --- 2. The service: shard-partitioned concurrent ingest --------
    config = ServiceConfig(
        parameter=InterArrivalTime(),
        shard_count=4,
        window=WindowConfig(window_s=10.0),
        min_observations=30,
    )
    workdir = Path(tempfile.mkdtemp(prefix="repro-service-"))
    with IngestServer(config, checkpoint_dir=workdir / "ckpts") as server:
        port = server.listen()
        print(f"service listening on 127.0.0.1:{port} "
              f"({config.shard_count} shards)")

        # floor1 "crashes" after 3 chunks — no END record goes out.
        report = SensorSession("floor1", chunks["floor1"]).connect(
            "127.0.0.1", port, abort_after_chunks=3
        )
        print(f"floor1 dropped after {report.chunks} chunks "
              "(server checkpoints the partial session)")

        # The other sensors stream concurrently...
        threads = [
            threading.Thread(
                target=SensorSession(sensor, chunks[sensor]).connect,
                args=("127.0.0.1", port),
            )
            for sensor in ("floor2", "lobby")
        ]
        for thread in threads:
            thread.start()

        # ...and floor1 reconnects, re-sending its capture from the
        # start; the server trims the already-processed prefix and
        # replays the rest event-for-event identically.  (The detach
        # wait is optional — a reconnect racing the old session's
        # drain is held at attach until the checkpoint lands.)
        server.wait_for_detach("floor1", timeout=30.0)
        report = SensorSession("floor1", chunks["floor1"]).connect(
            "127.0.0.1", port
        )
        print(f"floor1 resumed and completed: {report.frames} frames")

        for thread in threads:
            thread.join()
        server.wait_for_sessions(3)

        # --- 3. One shared database, deterministically merged -------
        stats = server.stats()
        print(f"\nserved {stats.frames} frames from "
              f"{len(stats.sensors)} sensors "
              f"(peak queue depth {stats.queue_peak} chunks)")
        for sensor in stats.sensors:
            print(f"  {sensor.sensor}: {sensor.frames} frames, "
                  f"{sensor.windows_closed} windows closed")

        store = server.publish(workdir / "refs.db")

    loaded = load_database(store)
    print(f"\npublished {len(loaded.database.devices)} reference devices "
          f"-> {store}")
    for device in sorted(loaded.database.devices, key=str):
        print(f"  {device}")


if __name__ == "__main__":
    main()
