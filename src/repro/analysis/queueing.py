"""Closed queueing-network analysis (exact Mean Value Analysis).

The simulator's service model — processor-sharing stations visited by a
closed population of think-submit-wait users — is a product-form
network, so its steady state is exactly computable by MVA (Reiser &
Lavenberg). This module provides that solver; the test suite uses it to
validate the simulator against theory, and it is handy for sizing
experiments before running them.

Single-class exact MVA recursion, for stations ``k`` with visit ratio
``v_k`` and mean service demand ``s_k``:

- queueing (PS or FCFS) station: ``R_k(n) = s_k * (1 + Q_k(n-1))``
- delay (infinite-server) station: ``R_k(n) = s_k``
- ``X(n) = n / (Z + sum_k v_k R_k(n))``; ``Q_k(n) = X(n) v_k R_k(n)``

Processor sharing is *insensitive* to the service distribution, so the
solver is exact for the simulator's lognormal demands as long as each
station has one core and no admission limit. Multi-core stations are
solved with the *exact* load-dependent MVA recursion (service rate
``min(j, c)/s`` at occupancy ``j``, tracking the marginal queue-length
probabilities), which matches the simulator's egalitarian multi-core PS
discipline; the conformance harness (:mod:`repro.validation`) holds the
simulator to the same tolerance for multi-core stations as for
single-core ones, with a slightly looser response-time bound reflecting
simulation noise rather than model error (see EXPERIMENTS.md).
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass


@dataclass(frozen=True)
class Station:
    """One service center.

    Attributes:
        name: label for reports.
        demand: mean service demand per visit (seconds).
        visits: visit ratio relative to one user request.
        kind: "queueing" (PS/FCFS single server), "delay"
            (infinite-server, e.g. think time), or "multi" (c-server
            PS, solved with a load-dependent correction).
        servers: server count for "multi" stations.
    """

    name: str
    demand: float
    visits: float = 1.0
    kind: _t.Literal["queueing", "delay", "multi"] = "queueing"
    servers: int = 1

    def __post_init__(self) -> None:
        if self.demand < 0:
            raise ValueError(f"negative demand {self.demand}")
        if self.visits < 0:
            raise ValueError(f"negative visits {self.visits}")
        if self.kind == "multi" and self.servers < 1:
            raise ValueError(f"servers must be >= 1, got {self.servers}")


@dataclass(frozen=True)
class MvaResult:
    """Steady-state solution for a population ``n``.

    Attributes:
        population: number of circulating users.
        throughput: system throughput (user requests per second).
        response_times: per-station residence time per *request*
            (visits * per-visit residence).
        queue_lengths: mean jobs at each station.
        cycle_time: mean end-to-end response time of one request
            (excluding think time).
    """

    population: int
    throughput: float
    response_times: dict[str, float]
    queue_lengths: dict[str, float]

    @property
    def cycle_time(self) -> float:
        """Total response time across every station (one cycle)."""
        return sum(self.response_times.values())

    def utilization(self, station: Station) -> float:
        """Utilization of a station (per server for multi)."""
        demand = station.visits * station.demand
        base = self.throughput * demand
        if station.kind == "multi":
            return base / station.servers
        return base


def solve_mva(stations: _t.Sequence[Station], population: int,
              think_time: float = 0.0) -> MvaResult:
    """Exact single-class MVA (load-dependent for multi-core stations).

    Single-server and delay stations use the classic arrival-theorem
    recursion. Multi-core ("multi") stations use the exact
    load-dependent form: with service rate ``mu(j) = min(j, c) / s`` at
    occupancy ``j``, the residence per visit at population ``n`` is

    .. math:: R_k(n) = \\sum_{j=1}^{n} \\frac{j}{\\mu_k(j)}\\,
              p_k(j-1 \\mid n-1)

    where ``p_k(. | n-1)`` are the station's marginal queue-length
    probabilities from the previous population, updated each step by
    ``p_k(j|n) = (X v_k / mu_k(j)) p_k(j-1|n-1)``.

    Args:
        stations: the service centers.
        population: closed population size ``N``.
        think_time: delay between completing a request and issuing the
            next one (the ``Z`` term).

    Returns:
        The solution at ``N`` (intermediate populations are computed
        internally by the standard recursion).
    """
    if population < 0:
        raise ValueError(f"negative population {population}")
    if think_time < 0:
        raise ValueError(f"negative think_time {think_time}")
    names = [s.name for s in stations]
    if len(set(names)) != len(names):
        raise ValueError("station names must be unique")

    queues = {s.name: 0.0 for s in stations}
    # Marginal occupancy distribution p_k(j | n) for load-dependent
    # stations, indexed by j; starts at population 0 (surely empty).
    marginals = {s.name: [1.0] for s in stations if s.kind == "multi"}
    throughput = 0.0
    response: dict[str, float] = {s.name: 0.0 for s in stations}
    for n in range(1, population + 1):
        for s in stations:
            if s.kind == "delay":
                per_visit = s.demand
            elif s.kind == "multi":
                prior = marginals[s.name]
                per_visit = s.demand * sum(
                    (j / min(j, s.servers)) * prior[j - 1]
                    for j in range(1, n + 1)) if s.demand > 0 else 0.0
            else:
                per_visit = s.demand * (1.0 + queues[s.name])
            response[s.name] = s.visits * per_visit
        denominator = think_time + sum(response.values())
        throughput = n / denominator if denominator > 0 else float("inf")
        for s in stations:
            if s.kind == "multi":
                if s.demand == 0:
                    queues[s.name] = 0.0
                    marginals[s.name] = [1.0] + [0.0] * n
                    continue
                prior = marginals[s.name]
                updated = [0.0] * (n + 1)
                for j in range(1, n + 1):
                    rate = min(j, s.servers) / s.demand
                    updated[j] = (throughput * s.visits / rate) * \
                        prior[j - 1]
                # Numerical guard: the tail can overshoot 1 by rounding.
                updated[0] = max(0.0, 1.0 - sum(updated[1:]))
                marginals[s.name] = updated
                queues[s.name] = sum(j * p for j, p in enumerate(updated))
            else:
                queues[s.name] = throughput * response[s.name]

    return MvaResult(
        population=population,
        throughput=throughput,
        response_times=dict(response),
        queue_lengths=dict(queues),
    )


def solve_mva_sweep(stations: _t.Sequence[Station],
                    populations: _t.Sequence[int],
                    think_time: float = 0.0) -> list[MvaResult]:
    """MVA solutions at several population sizes."""
    return [solve_mva(stations, n, think_time) for n in populations]


def bottleneck(stations: _t.Sequence[Station]) -> Station:
    """The station with the largest total demand (asymptotic limit)."""
    loaded = [s for s in stations if s.kind != "delay"]
    if not loaded:
        raise ValueError("no queueing stations")
    return max(loaded, key=lambda s: s.visits * s.demand /
               (s.servers if s.kind == "multi" else 1))


def asymptotic_bounds(stations: _t.Sequence[Station],
                      think_time: float = 0.0
                      ) -> tuple[float, float]:
    """Operational-law bounds ``(X_max, N_star)``.

    ``X_max = 1 / D_bottleneck`` is the saturation throughput;
    ``N_star = (D_total + Z) / D_bottleneck`` is the population at which
    the system saturates.
    """
    heavy = bottleneck(stations)
    d_max = heavy.visits * heavy.demand / (
        heavy.servers if heavy.kind == "multi" else 1)
    d_total = sum(s.visits * s.demand for s in stations
                  if s.kind != "delay")
    return 1.0 / d_max, (d_total + think_time) / d_max
