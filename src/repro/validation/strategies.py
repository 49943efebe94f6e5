"""Hypothesis strategies for the property/metamorphic test layer.

Importing this module requires ``hypothesis`` (a dev dependency); the
rest of :mod:`repro.validation` stays importable without it.

The strategies generate the three input families the SCG pipeline and
the simulator consume:

- :func:`knee_scatters` — noisy ``<concurrency, rate>`` samples drawn
  from a curve with a known capacity knee;
- :func:`chain_specs` (+ :func:`build_chain_app`) — linear-chain
  call-graph topologies with bounded demands and pool sizes;
- :func:`workload_traces` — parametrized bursty traces from the
  paper's six shapes;
- :func:`linear_trace` — synthetic finished span trees with exact,
  chosen per-service self times (for deadline-propagation relations);
- :func:`call_trees` — random finished call trees with parallel and
  overlapping children, unfinished and cancelled spans, and services
  repeated along a path (for critical-path extraction).
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass

import numpy as np
from hypothesis import strategies as st

from repro.app.application import Application
from repro.app.behavior import Call, Compute, Operation, Step
from repro.app.service import Microservice
from repro.sim.distributions import Constant
from repro.sim.engine import Environment
from repro.sim.rng import RandomStreams
from repro.tracing.span import Span
from repro.workloads.traces import TRACE_NAMES, WorkloadTrace, build_trace


# ----------------------------------------------------------------------
# Scatter samples with a known knee
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class KneeScatter:
    """A generated scatter with its ground-truth capacity knee."""

    concurrency: np.ndarray
    rate: np.ndarray
    knee: float
    noise: float


@st.composite
def knee_scatters(draw: st.DrawFn,
                  min_knee: float = 5.0,
                  max_knee: float = 30.0,
                  min_samples: int = 80,
                  max_samples: int = 240) -> KneeScatter:
    """Noisy samples from a saturating concurrency-rate curve.

    The underlying curve rises linearly to the knee and stays flat
    beyond it (the idealized Fig. 7 shape); samples cover concurrency
    levels up to ~2x the knee with bounded multiplicative noise.
    """
    knee = draw(st.floats(min_knee, max_knee))
    span = draw(st.floats(1.6, 2.5))
    count = draw(st.integers(min_samples, max_samples))
    noise = draw(st.floats(0.0, 0.04))
    rng_seed = draw(st.integers(0, 2 ** 16))
    rng = np.random.default_rng(rng_seed)
    concurrency = rng.uniform(1.0, knee * span, size=count)
    rate = np.minimum(concurrency, knee)
    rate = rate * (1.0 + noise * rng.standard_normal(count))
    return KneeScatter(concurrency=concurrency,
                       rate=np.maximum(rate, 0.0), knee=knee,
                       noise=noise)


# ----------------------------------------------------------------------
# Call-graph topologies
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ChainSpec:
    """A linear-chain application topology.

    Attributes:
        demands_ms: per-service constant CPU demand (milliseconds).
        threads: entry-service thread pool size (``None`` = async).
        cores: per-replica cores for every service.
    """

    demands_ms: tuple[float, ...]
    threads: int | None
    cores: float

    @property
    def depth(self) -> int:
        return len(self.demands_ms)


@st.composite
def chain_specs(draw: st.DrawFn, max_depth: int = 5,
                max_demand_ms: float = 8.0) -> ChainSpec:
    """Bounded linear-chain topologies."""
    depth = draw(st.integers(1, max_depth))
    demands = tuple(
        draw(st.floats(0.2, max_demand_ms)) for _ in range(depth))
    threads = draw(st.one_of(st.none(), st.integers(1, 8)))
    cores = draw(st.sampled_from([1.0, 2.0, 4.0]))
    return ChainSpec(demands_ms=demands, threads=threads, cores=cores)


def build_chain_app(env: Environment, streams: RandomStreams,
                    spec: ChainSpec) -> Application:
    """Instantiate a :class:`ChainSpec` as a runnable application."""
    app = Application(env)
    names = [f"svc{i}" for i in range(spec.depth)]
    for index, name in enumerate(names):
        pool = spec.threads if index == 0 else None
        service = Microservice(env, name, streams.stream(name),
                               cores=spec.cores, thread_pool_size=pool)
        steps: list[Step] = [
            Compute(Constant(spec.demands_ms[index] / 1000.0))]
        if index + 1 < spec.depth:
            steps.append(Call(names[index + 1]))
        service.add_operation(Operation("default", steps))
        app.add_service(service)
    app.set_entrypoint("go", names[0], "default")
    return app


# ----------------------------------------------------------------------
# Workload traces
# ----------------------------------------------------------------------
@st.composite
def workload_traces(draw: st.DrawFn,
                    max_duration: float = 120.0) -> WorkloadTrace:
    """One of the six paper trace shapes with drawn parameters."""
    name = draw(st.sampled_from(TRACE_NAMES))
    duration = draw(st.floats(20.0, max_duration))
    peak = draw(st.integers(20, 200))
    low = draw(st.integers(1, peak))
    return build_trace(name, duration=duration, peak_users=peak,
                       min_users=low)


# ----------------------------------------------------------------------
# Synthetic span trees
# ----------------------------------------------------------------------
def linear_trace(self_times: _t.Sequence[float],
                 start: float = 0.0) -> Span:
    """A finished linear-chain trace with exact per-service self times.

    Service ``svc{i}`` at depth ``i`` gets ``self_times[i]`` seconds of
    processing, split evenly around its single child's interval — so
    ``span.self_time()`` reproduces the input exactly and the critical
    path is the full chain.
    """
    if not self_times:
        raise ValueError("need at least one self time")
    total = list(np.cumsum(list(self_times)[::-1]))[::-1]
    spans: list[Span] = []
    cursor = start
    parent: Span | None = None
    for depth, self_time in enumerate(self_times):
        arrival = cursor
        span = Span(trace_id=1, service=f"svc{depth}",
                    operation="default", arrival=arrival, parent=parent)
        span.started = arrival
        span.departure = arrival + total[depth]
        spans.append(span)
        parent = span
        cursor = arrival + self_time / 2.0
    return spans[0]


@st.composite
def call_trees(draw: st.DrawFn, services: _t.Sequence[str] = (
        "fe", "cart", "db", "cache"), max_depth: int = 3,
        max_children: int = 4, tick: float = 0.001) -> Span:
    """A finished root span over a random call tree.

    Times are whole multiples of ``tick``, so children often arrive
    together or exactly when a sibling departs (the tie cases of
    critical-path clustering). Children may overlap one another (each
    departs within its parent), stay unfinished (no departure), or be
    cancelled. Service names come from the small ``services``
    alphabet, so one service can sit twice on a path and another off
    it. The root departs at a drawn time, so a list of trees spreads
    over a window.
    """
    trace_id = draw(st.integers(1, 2 ** 20))

    def build(parent: Span | None, arrival: int, length: int,
              depth: int) -> Span:
        span = Span(trace_id, draw(st.sampled_from(services)), "op",
                    arrival * tick, parent=parent)
        span.started = arrival * tick
        if parent is not None and draw(st.integers(0, 7)) == 0:
            return span  # unfinished: still running when its root left
        span.departure = (arrival + length) * tick
        span.cancelled = parent is not None and draw(
            st.integers(0, 7)) == 0
        if depth > 0 and length > 1:
            for _ in range(draw(st.integers(0, max_children))):
                offset = draw(st.integers(0, length - 1))
                build(span, arrival + offset,
                      draw(st.integers(0, length - offset)), depth - 1)
        return span

    start = draw(st.integers(0, 200))
    return build(None, start, draw(st.integers(1, 60)), max_depth)


# ----------------------------------------------------------------------
# Scenario-zoo parameters
# ----------------------------------------------------------------------
@st.composite
def zoo_params(draw: st.DrawFn,
               archetypes: _t.Sequence[str] | None = None,
               max_shards: int = 6):
    """Valid :class:`~repro.scenarios.zoo.ZooParams` draws.

    Covers every archetype with bounded widths/demands (so property
    tests that *run* the generated scenarios stay fast) while hitting
    the interesting corners: minimum/maximum quorum sizes, storms on
    and off, degrade policies on and off, skewed hot shards.
    """
    from repro.scenarios.zoo import ARCHETYPES, ZooParams

    archetype = draw(st.sampled_from(
        tuple(archetypes) if archetypes else ARCHETYPES))
    shards = draw(st.integers(2, max_shards))
    storm_at = draw(st.one_of(st.none(), st.floats(0.0, 60.0)))
    degrade = draw(st.one_of(st.none(), st.floats(0.05, 0.5)))
    return ZooParams(
        archetype=archetype,
        shards=shards,
        quorum_k=draw(st.integers(1, shards)),
        slow_factor=draw(st.floats(1.0, 8.0)),
        hedge_after=draw(st.floats(0.005, 0.1)),
        hit_ratio=draw(st.floats(0.05, 0.95)),
        storm_at=storm_at,
        storm_duration=draw(st.floats(1.0, 60.0)),
        storm_miss=draw(st.floats(0.1, 1.0)),
        hot_weight=draw(st.floats(0.05, 0.95)),
        demand_ms=draw(st.floats(0.5, 8.0)),
        demand_cv=draw(st.floats(0.1, 1.5)),
        entry_threads=draw(st.integers(4, 48)),
        connections=draw(st.integers(2, 48)),
        replicas=draw(st.integers(1, 3)),
        degrade_timeout=degrade,
    )
