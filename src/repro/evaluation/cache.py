"""Session-wide simulation memo shared by benchmarks and the matrix.

Scenario simulation is the wall-clock floor of every sweep: in a
traced scenario-matrix cycle (perfbench, seed 1, 2-CPU x86_64 box) the
simulator runs the eight presets at half scale, 144k frames, at about
66k frames/s — 2.2 s of a 2.6 s cycle — and learning and scoring the
80 cells take the rest.  So every harness that drives simulations
shares one :class:`SimulationCache`: factor experiments (the Section VI figure
benchmarks) and scenario-library builds (the evaluation matrix) are
memoised on their full determinism key — every scenario is seeded, so
a cache hit is exact.

``benchmarks/conftest.py`` exposes an instance as the session-scoped
``sim_cache`` fixture; the CLI matrix mode builds a private one per
invocation so repeated cells (several measures per scenario, resume
runs) share a single simulation.
"""

from __future__ import annotations

from repro.scenarios.library import BuiltScenario, build_scenario


class SimulationCache:
    """Memoises factor experiments and scenario-library simulations."""

    def __init__(self) -> None:
        self._results: dict[tuple, object] = {}

    # -- Section VI factor experiments (figure benchmarks) -------------
    def experiment(
        self,
        name: str,
        duration_s: float,
        seed: int | None = None,
        scale: float = 1.0,
    ):
        """Run (or recall) one factor experiment by short name.

        ``scale`` does not parameterize the experiment itself — it
        discriminates cache entries when the ambient dataset scale
        changes between sessions (the bench conftest passes its
        ``REPRO_BENCH_SCALE``).
        """
        from repro.analysis import factors

        runner = getattr(factors, f"{name}_experiment")
        key = ("experiment", name, duration_s, seed, scale)
        if key not in self._results:
            kwargs: dict = {"duration_s": duration_s}
            if seed is not None:
                kwargs["seed"] = seed
            self._results[key] = runner(**kwargs)
        return self._results[key]

    # -- Scenario library ----------------------------------------------
    def built_scenario(
        self,
        name: str,
        duration_s: float | None = None,
        seed: int | None = None,
        scale: float = 1.0,
    ) -> BuiltScenario:
        """Build (or recall) one library scenario.

        The returned :class:`BuiltScenario` memoises its own
        ``simulate()`` result, so all matrix cells sharing a scenario
        run exactly one simulation.
        """
        key = ("scenario", name, duration_s, seed, scale)
        if key not in self._results:
            self._results[key] = build_scenario(
                name, duration_s=duration_s, seed=seed, scale=scale
            )
        return self._results[key]
