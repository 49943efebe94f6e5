"""Theory-conformance harness: simulator vs. exact MVA.

For each :class:`~repro.validation.scenarios.ConformanceScenario` the
harness solves the network analytically and simulates it, then compares

- system throughput,
- end-to-end response time (cycle time, think excluded),
- per-station residence time per visit (span self time), and
- per-station mean queue length (via Little's law on the measured
  throughput and residence — flagged as derived in the report),

each as a relative error against the MVA solution, gated by a declared
:class:`Tolerance`. Simulation measurements use the steady-state second
half of each run (the first half is warm-up), averaged over independent
replications with derived seeds — near the saturation knee queue
fluctuations mix slowly, and replications tighten the estimate faster
than a longer single run.

Declared tolerances (see EXPERIMENTS.md for the measured headroom):

====================  ===========  ==============  =============
station family        throughput   response time   queue length
====================  ===========  ==============  =============
single-core PS        2%           8%              10%
multi-core PS (LD)    3%           10%             12%
====================  ===========  ==============  =============

Throughput is the headline bound: the estimator's variance is dominated
by iid think-time draws, so averaging controls it tightly. Residence
and queue-length errors carry the slow-mixing queue fluctuation noise
and get honest, looser bounds; the typical measured error is well under
half the bound (see the verbose report).
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.queueing import MvaResult, solve_mva
from repro.experiments.reporting import ascii_table
from repro.validation.scenarios import (
    ConformanceScenario,
    generate_scenarios,
)

#: Default master seed for conformance runs (any seed must pass; CI
#: pins one so failures are reproducible).
DEFAULT_SEED = 17

#: Independent replications averaged per scenario (seeds are derived
#: from the master seed).
DEFAULT_REPLICATIONS = 2


@dataclass(frozen=True)
class Tolerance:
    """Relative-error bounds for one scenario.

    Attributes:
        throughput: bound on system-throughput error.
        response_time: bound on end-to-end and per-station residence
            error.
        queue_length: bound on per-station mean-queue error.
    """

    throughput: float
    response_time: float
    queue_length: float

    @classmethod
    def for_scenario(cls, scenario: ConformanceScenario) -> "Tolerance":
        """The declared bound for a scenario's station family."""
        if any(c > 1 for c in scenario.cores):
            return cls(throughput=0.03, response_time=0.10,
                       queue_length=0.12)
        return cls(throughput=0.02, response_time=0.08,
                   queue_length=0.10)


@dataclass(frozen=True)
class StationError:
    """Sim-vs-theory agreement for one station.

    Residence times are *per visit*; queue lengths are mean jobs at the
    station (queued + in service).
    """

    station: str
    sim_residence: float
    mva_residence: float
    residence_error: float
    sim_queue: float
    mva_queue: float
    queue_error: float
    samples: int


@dataclass(frozen=True)
class ScenarioResult:
    """Outcome of one scenario's conformance check."""

    scenario: ConformanceScenario
    tolerance: Tolerance
    sim_throughput: float
    mva_throughput: float
    throughput_error: float
    sim_cycle_time: float
    mva_cycle_time: float
    cycle_time_error: float
    stations: tuple[StationError, ...]
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        """Whether every checked bound held for this scenario."""
        return not self.failures

    @property
    def worst_station_error(self) -> float:
        """Largest relative residence-time error across stations."""
        if not self.stations:
            return 0.0
        return max(s.residence_error for s in self.stations)


@dataclass
class ConformanceReport:
    """Aggregated outcome across a scenario family."""

    results: list[ScenarioResult] = field(default_factory=list)
    seed: int = DEFAULT_SEED

    @property
    def passed(self) -> bool:
        """Whether every scenario in the suite passed."""
        return all(r.passed for r in self.results)

    @property
    def failures(self) -> list[str]:
        """Every failure message, prefixed with its scenario name."""
        return [f"{r.scenario.name}: {message}"
                for r in self.results for message in r.failures]

    def render(self, verbose: bool = False) -> str:
        """Human-readable report (per-station detail when verbose)."""
        rows = []
        for r in self.results:
            rows.append([
                r.scenario.name,
                "multi" if any(c > 1 for c in r.scenario.cores)
                else "single",
                r.scenario.population,
                f"{r.sim_throughput:.2f}/{r.mva_throughput:.2f}",
                f"{r.throughput_error * 100:.2f}%",
                f"{r.cycle_time_error * 100:.2f}%",
                f"{r.worst_station_error * 100:.2f}%",
                "PASS" if r.passed else "FAIL",
            ])
        out = [ascii_table(
            ["scenario", "family", "N", "X sim/mva [1/s]", "X err",
             "RT err", "worst station RT err", "verdict"], rows,
            title=f"Theory conformance (seed {self.seed}; tolerances: "
                  "single-core X 2% / RT 8%, multi-core X 3% / RT 10%)")]
        if verbose:
            for r in self.results:
                detail = [[
                    s.station, s.samples,
                    s.sim_residence * 1000, s.mva_residence * 1000,
                    f"{s.residence_error * 100:.2f}%",
                    f"{s.sim_queue:.3f}/{s.mva_queue:.3f}",
                    f"{s.queue_error * 100:.2f}%",
                ] for s in r.stations]
                out.append(ascii_table(
                    ["station", "spans", "R sim [ms]", "R mva [ms]",
                     "R err", "Q sim/mva (Little)", "Q err"], detail,
                    title=f"\n{r.scenario.name} — "
                          f"{r.scenario.description}"))
        if not self.passed:
            out.append("\nFailures:")
            out.extend(f"  - {line}" for line in self.failures)
        return "\n".join(out)


def _relative_error(sim: float, theory: float) -> float:
    if theory == 0.0:
        return 0.0 if sim == 0.0 else float("inf")
    return abs(sim - theory) / theory


def _measure(scenario: ConformanceScenario, seed: int
             ) -> tuple[float, float, dict[str, tuple[float, int]]]:
    """One replication: ``(X, cycle_time, {station: (residence, n)})``
    measured over the steady-state second half."""
    _env, app = scenario.run(seed)
    since, until = scenario.duration / 2.0, scenario.duration
    window = until - since
    times, latencies = app.latency["go"].window(since, until)
    throughput = times.size / window
    cycle = float(np.mean(latencies)) if latencies.size else 0.0
    residences: dict[str, tuple[float, int]] = {}
    stations = app.warehouse.spans_by_service(scenario.service_names,
                                              since, until)
    for name, spans in stations.items():
        self_times = np.asarray([span.self_time() for span in spans])
        mean = float(np.mean(self_times)) if self_times.size else 0.0
        residences[name] = (mean, int(self_times.size))
    return throughput, cycle, residences


def run_scenario_conformance(
        scenario: ConformanceScenario, seed: int = DEFAULT_SEED,
        replications: int = DEFAULT_REPLICATIONS) -> ScenarioResult:
    """Run one scenario through both solver and simulator and compare.

    Measurements are averaged over ``replications`` independent runs
    with seeds derived from ``seed``.
    """
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    theory: MvaResult = solve_mva(scenario.stations(),
                                  scenario.population,
                                  think_time=scenario.think_time)
    tolerance = Tolerance.for_scenario(scenario)
    runs = [_measure(scenario, seed + 101 * rep)
            for rep in range(replications)]
    sim_throughput = float(np.mean([x for x, _c, _r in runs]))
    sim_cycle = float(np.mean([c for _x, c, _r in runs]))

    failures: list[str] = []
    throughput_error = _relative_error(sim_throughput, theory.throughput)
    if throughput_error > tolerance.throughput:
        failures.append(
            f"throughput error {throughput_error * 100:.2f}% exceeds "
            f"{tolerance.throughput * 100:.1f}% "
            f"(sim {sim_throughput:.3f}, mva {theory.throughput:.3f})")
    cycle_error = _relative_error(sim_cycle, theory.cycle_time)
    if cycle_error > tolerance.response_time:
        failures.append(
            f"cycle-time error {cycle_error * 100:.2f}% exceeds "
            f"{tolerance.response_time * 100:.1f}% "
            f"(sim {sim_cycle * 1000:.2f} ms, "
            f"mva {theory.cycle_time * 1000:.2f} ms)")

    stations: list[StationError] = []
    for station, visits in zip(scenario.stations(), scenario.visits):
        per_run = [residences[station.name] for _x, _c, residences
                   in runs]
        samples = sum(n for _mean, n in per_run)
        sim_residence = float(np.mean([mean for mean, _n in per_run]))
        mva_residence = theory.response_times[station.name] / visits
        residence_error = _relative_error(sim_residence, mva_residence)
        # Little's law on measured quantities: station arrivals per
        # second are X * v, each staying sim_residence on average.
        sim_queue = sim_throughput * visits * sim_residence
        mva_queue = theory.queue_lengths[station.name]
        queue_error = _relative_error(sim_queue, mva_queue)
        stations.append(StationError(
            station=station.name, sim_residence=sim_residence,
            mva_residence=mva_residence,
            residence_error=residence_error, sim_queue=sim_queue,
            mva_queue=mva_queue, queue_error=queue_error,
            samples=samples))
        if residence_error > tolerance.response_time:
            failures.append(
                f"station {station.name}: residence error "
                f"{residence_error * 100:.2f}% exceeds "
                f"{tolerance.response_time * 100:.1f}%")
        if queue_error > tolerance.queue_length:
            failures.append(
                f"station {station.name}: queue error "
                f"{queue_error * 100:.2f}% exceeds "
                f"{tolerance.queue_length * 100:.1f}%")

    return ScenarioResult(
        scenario=scenario, tolerance=tolerance,
        sim_throughput=sim_throughput,
        mva_throughput=theory.throughput,
        throughput_error=throughput_error,
        sim_cycle_time=sim_cycle, mva_cycle_time=theory.cycle_time,
        cycle_time_error=cycle_error, stations=tuple(stations),
        failures=tuple(failures))


def run_conformance(
        scenarios: _t.Sequence[ConformanceScenario] | None = None,
        seed: int = DEFAULT_SEED,
        duration_scale: float = 1.0,
        replications: int = DEFAULT_REPLICATIONS) -> ConformanceReport:
    """Run the conformance family and aggregate a report.

    Args:
        scenarios: the family to check (defaults to the generated one).
        seed: master seed for every scenario run.
        duration_scale: multiplier on each scenario's duration — lower
            it for smoke runs (tolerances are calibrated for 1.0, so
            sub-unity scales are for plumbing checks, not gating).
        replications: independent runs averaged per scenario.
    """
    family = list(scenarios) if scenarios is not None \
        else generate_scenarios()
    if duration_scale != 1.0:
        from dataclasses import replace
        family = [replace(s, duration=s.duration * duration_scale)
                  for s in family]
    report = ConformanceReport(seed=seed)
    for scenario in family:
        report.results.append(
            run_scenario_conformance(scenario, seed,
                                     replications=replications))
    return report
