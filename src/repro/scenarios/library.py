"""Declarative scenario registry.

The paper validates on one simulated office analogue; the library
turns "as many scenarios as you can imagine" into named, parameterized
presets.  A preset is a factory producing a fully seeded
:class:`~repro.simulator.scenario.Scenario` plus the metadata the
evaluation harness needs (station count, duration, traffic mix, and
the split/window/min-observation settings its cells are pinned
under).  Every build is validated eagerly — duplicate MACs, zero
stations and non-positive durations raise :class:`ValueError` at
construction instead of failing deep inside the event loop.

Presets register themselves via the :func:`scenario_preset` decorator
(see :mod:`repro.scenarios.presets`); look them up with
:func:`scenario_by_name` / :func:`scenario_names` and materialise one
with :func:`build_scenario`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.simulator.scenario import Scenario
from repro.traces.trace import Trace

#: A preset body: receives (duration_s, seed, scale) and returns the
#: assembled (but not yet run) scenario.
ScenarioBuilder = Callable[[float, int, float], Scenario]


@dataclass(frozen=True)
class ScenarioMetadata:
    """Everything the evaluation harness records about one build."""

    name: str
    description: str
    duration_s: float
    seed: int
    scale: float
    station_count: int
    ap_count: int
    encrypted: bool
    training_s: float
    window_s: float
    min_observations: int
    #: Sorted unique traffic-source class names across all stations
    #: (driver-level services derived from profiles not included).
    traffic_mix: tuple[str, ...]


@dataclass
class BuiltScenario:
    """One materialised preset: the scenario plus its metadata.

    ``simulate()`` runs the event loop once and memoises the resulting
    :class:`~repro.traces.trace.Trace`; repeated calls (e.g. several
    matrix cells sharing a scenario) reuse the capture.
    """

    scenario: Scenario
    metadata: ScenarioMetadata
    _trace: Trace | None = field(default=None, repr=False)

    def simulate(self) -> Trace:
        """Run (or recall) the simulation as a ground-truth trace."""
        if self._trace is None:
            self._trace = self.scenario.run().trace(
                name=self.metadata.name, encrypted=self.metadata.encrypted
            )
        return self._trace


@dataclass(frozen=True)
class ScenarioPreset:
    """A named, parameterized scenario factory."""

    name: str
    description: str
    duration_s: float
    seed: int
    builder: ScenarioBuilder
    #: Fraction of the trace used as the training split by the
    #: evaluation harness (the paper trains on a leading prefix).
    training_fraction: float = 0.5
    window_s: float = 15.0
    min_observations: int = 30

    def build(
        self,
        duration_s: float | None = None,
        seed: int | None = None,
        scale: float = 1.0,
    ) -> BuiltScenario:
        """Materialise the preset (validated, not yet simulated)."""
        chosen_duration = self.duration_s if duration_s is None else duration_s
        chosen_seed = self.seed if seed is None else seed
        if chosen_duration <= 0:
            raise ValueError(
                f"scenario {self.name!r}: duration must be positive: "
                f"{chosen_duration}"
            )
        if scale <= 0:
            raise ValueError(
                f"scenario {self.name!r}: scale must be positive: {scale}"
            )
        scenario = self.builder(chosen_duration, chosen_seed, scale)
        scenario.validate()
        sources = {
            type(source).__name__
            for spec in scenario.specs
            for source in (*spec.sources, *spec.downlink)
        }
        metadata = ScenarioMetadata(
            name=self.name,
            description=self.description,
            duration_s=chosen_duration,
            seed=chosen_seed,
            scale=scale,
            station_count=len(scenario.specs),
            ap_count=scenario.ap_count,
            encrypted=scenario.encrypted,
            training_s=chosen_duration * self.training_fraction,
            window_s=self.window_s,
            min_observations=self.min_observations,
            traffic_mix=tuple(sorted(sources)),
        )
        return BuiltScenario(scenario=scenario, metadata=metadata)


_REGISTRY: dict[str, ScenarioPreset] = {}


def scenario_preset(
    name: str,
    description: str,
    duration_s: float,
    seed: int,
    training_fraction: float = 0.5,
    window_s: float = 15.0,
    min_observations: int = 30,
) -> Callable[[ScenarioBuilder], ScenarioBuilder]:
    """Register a builder function as a named preset (decorator)."""

    def register(builder: ScenarioBuilder) -> ScenarioBuilder:
        if name in _REGISTRY:
            raise ValueError(f"scenario preset {name!r} already registered")
        _REGISTRY[name] = ScenarioPreset(
            name=name,
            description=description,
            duration_s=duration_s,
            seed=seed,
            builder=builder,
            training_fraction=training_fraction,
            window_s=window_s,
            min_observations=min_observations,
        )
        return builder

    return register


def scenario_names() -> tuple[str, ...]:
    """All registered preset names, in registration order."""
    _ensure_presets()
    return tuple(_REGISTRY)


def scenario_by_name(name: str) -> ScenarioPreset:
    """Look up a preset; raises ``KeyError`` with the available names."""
    _ensure_presets()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def build_scenario(
    name: str,
    duration_s: float | None = None,
    seed: int | None = None,
    scale: float = 1.0,
) -> BuiltScenario:
    """Materialise a registered preset by name."""
    return scenario_by_name(name).build(
        duration_s=duration_s, seed=seed, scale=scale
    )


def _ensure_presets() -> None:
    """Import the bundled preset module exactly once."""
    import repro.scenarios.presets  # noqa: F401  (registers on import)
