"""Radio channel model: path loss, SNR, frame error and mobility.

The paper's two environments differ mainly in channel dynamics:

* **office** — stations are static, links are strong and stable, so
  rate control converges and per-device behaviour dominates;
* **conference** — "devices often change location which impacts the
  quality of the wireless signal" (Section V-B1), degrading the
  transmission-rate and transmission-time fingerprints.

The model is a log-distance path loss with shadowing, per-rate SNR
thresholds mapped through a sigmoid to a frame-success probability,
and an optional random-waypoint mobility process.  A ``noiseless``
channel (every frame succeeds, monitor captures everything) stands in
for the paper's Faraday cage in the Section VI micro-experiments.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

#: Minimum SNR (dB) at which each rate decodes reliably; values follow
#: common 802.11b/g receiver sensitivity tables.
RATE_SNR_THRESHOLD_DB: dict[float, float] = {
    1.0: 1.0,
    2.0: 3.0,
    5.5: 5.0,
    11.0: 8.0,
    6.0: 5.0,
    9.0: 7.0,
    12.0: 9.0,
    18.0: 11.0,
    24.0: 14.0,
    36.0: 18.0,
    48.0: 22.0,
    54.0: 24.0,
}


@dataclass(slots=True)
class Position:
    """A 2-D position in metres."""

    x: float
    y: float

    def distance_to(self, other: "Position") -> float:
        """Euclidean distance, floored at 0.5 m to avoid singularities."""
        return max(0.5, math.hypot(self.x - other.x, self.y - other.y))


@dataclass(slots=True)
class Mobility:
    """Random-waypoint mobility inside a rectangular area.

    ``speed_mps`` of 0 disables movement.  Positions are updated lazily:
    callers ask for the position *at a time* and the walk is advanced
    deterministically from its RNG.
    """

    area_m: float = 40.0
    speed_mps: float = 0.0
    pause_s: float = 30.0
    _position: Position = field(default_factory=lambda: Position(10.0, 10.0))
    _target: Position | None = None
    _last_update_us: float = 0.0
    _pause_until_us: float = 0.0

    def position_at(self, time_us: float, rng: random.Random) -> Position:
        """Advance the walk to ``time_us`` and return the position."""
        if self.speed_mps <= 0 or time_us <= self._last_update_us:
            self._last_update_us = max(self._last_update_us, time_us)
            return self._position
        elapsed_s = (time_us - self._last_update_us) / 1e6
        self._last_update_us = time_us
        while elapsed_s > 0:
            if time_us < self._pause_until_us:
                return self._position
            if self._target is None:
                self._target = Position(
                    rng.uniform(0, self.area_m), rng.uniform(0, self.area_m)
                )
            dist = self._position.distance_to(self._target)
            step = self.speed_mps * elapsed_s
            if step >= dist:
                self._position = self._target
                self._target = None
                travel_s = dist / self.speed_mps
                elapsed_s -= travel_s
                self._pause_until_us = time_us + self.pause_s * 1e6
                return self._position
            frac = step / dist
            self._position = Position(
                self._position.x + (self._target.x - self._position.x) * frac,
                self._position.y + (self._target.y - self._position.y) * frac,
            )
            elapsed_s = 0.0
        return self._position


@dataclass(slots=True)
class ChannelModel:
    """Log-distance path loss + shadowing + sigmoid frame errors.

    ``noiseless=True`` turns the channel into a Faraday-cage analogue:
    every frame decodes at any receiver and the monitor misses nothing.
    """

    tx_power_dbm: float = 15.0
    noise_floor_dbm: float = -92.0
    path_loss_exponent: float = 2.7
    reference_loss_db: float = 40.0
    shadowing_sigma_db: float = 2.0
    sigmoid_width_db: float = 1.8
    monitor_capture_bonus_db: float = 3.0
    noiseless: bool = False

    def received_dbm(self, distance_m: float) -> float:
        """Mean received power over a link of ``distance_m`` metres.

        Transmit power minus log-distance path loss, before shadowing.
        It is also the signal strength the monitor reports for a frame
        sent over that link.  A static link computes it once.
        """
        return self.tx_power_dbm - (
            self.reference_loss_db
            + 10 * self.path_loss_exponent * math.log10(max(distance_m, 0.5))
        )

    def snr_db(self, received_dbm: float, rng: random.Random) -> float:
        """Instantaneous SNR of a link with mean power ``received_dbm``."""
        shadowing = rng.gauss(0.0, self.shadowing_sigma_db)
        return received_dbm + shadowing - self.noise_floor_dbm

    def success_probability(self, snr_db: float, rate_mbps: float, size: int) -> float:
        """Probability one frame decodes at this SNR and rate.

        The sigmoid centres on the rate's sensitivity threshold; longer
        frames accumulate more error chances, modelled by compounding
        the per-1500-byte probability.
        """
        threshold = RATE_SNR_THRESHOLD_DB[rate_mbps]
        base = 1.0 / (1.0 + math.exp(-(snr_db - threshold) / self.sigmoid_width_db))
        exponent = max(0.25, size / 1500.0)
        return base**exponent

    def frame_succeeds(
        self, received_dbm: float, rate_mbps: float, size: int, rng: random.Random
    ) -> bool:
        """Draw whether a frame crosses a link intact."""
        if self.noiseless:
            return True
        snr = self.snr_db(received_dbm, rng)
        return rng.random() < self.success_probability(snr, rate_mbps, size)

    def monitor_captures(
        self, received_dbm: float, rate_mbps: float, size: int, rng: random.Random
    ) -> bool:
        """Draw whether the monitor's card decodes a frame.

        Monitoring setups favour antenna placement, modelled as an SNR
        bonus — but captures are still lossy, as real monitor traces
        (and the paper's) are.
        """
        if self.noiseless:
            return True
        snr = self.snr_db(received_dbm, rng) + self.monitor_capture_bonus_db
        return rng.random() < self.success_probability(snr, rate_mbps, size)

    def best_rate_for_snr(self, snr_db: float, rates: tuple[float, ...]) -> float:
        """Highest rate whose threshold is comfortably below ``snr_db``."""
        best = rates[0]
        for rate in rates:
            if RATE_SNR_THRESHOLD_DB[rate] + 2.0 <= snr_db:
                best = rate
        return best
