"""Property/metamorphic tests over the SCG pipeline and the simulator.

Strategies come from :mod:`repro.validation.strategies`; each test
states one relation that must hold for *any* generated input:

- Kneedle/SCG estimates are invariant to sample order and scale with
  the concurrency axis, and recover a planted knee;
- goodput never exceeds throughput, and both integrate back to the
  service's completion log, for any topology and threshold;
- deadline propagation is exactly the SLA minus upstream self time,
  hence monotone (non-increasing) in upstream processing time, and
  always clamped to ``[floor·SLA, SLA]``;
- exact MVA is monotone in population, respects asymptotic bounds, and
  treats a 1-server multi station identically to a single station;
- armed invariant checkers stay silent on healthy runs and fire on a
  conservation break.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.queueing import Station, solve_mva
from repro.core.deadline import DeadlinePropagator
from repro.core.scg import SCGModel
from repro.metrics import ConcurrencyGoodputSampler
from repro.sim import Environment, RandomStreams
from repro.validation import InvariantChecker, InvariantViolation
from repro.validation.strategies import (
    build_chain_app,
    chain_specs,
    knee_scatters,
    linear_trace,
    workload_traces,
)

SUPPRESS = [HealthCheck.too_slow]


# ----------------------------------------------------------------------
# SCG / Kneedle metamorphic relations
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None, suppress_health_check=SUPPRESS)
@given(scatter=knee_scatters(), order_seed=st.integers(0, 2 ** 16))
def test_scg_estimate_invariant_to_sample_order(scatter, order_seed):
    """Shuffling the scatter samples must not move the estimate."""
    model = SCGModel()
    baseline = model.estimate(scatter.concurrency, scatter.rate)
    permutation = np.random.default_rng(order_seed).permutation(
        scatter.concurrency.size)
    shuffled = model.estimate(scatter.concurrency[permutation],
                              scatter.rate[permutation])
    if baseline is None:
        assert shuffled is None
    else:
        assert shuffled is not None
        assert shuffled.optimal_concurrency == \
            baseline.optimal_concurrency
        assert shuffled.method == baseline.method


@settings(max_examples=30, deadline=None, suppress_health_check=SUPPRESS)
@given(scatter=knee_scatters())
def test_scg_recovers_planted_knee(scatter):
    """The estimate lands near the curve's ground-truth knee."""
    estimate = SCGModel().estimate(scatter.concurrency, scatter.rate)
    assert estimate is not None
    error = abs(estimate.optimal_concurrency - scatter.knee)
    assert error <= max(2.0, 0.35 * scatter.knee)


@settings(max_examples=20, deadline=None, suppress_health_check=SUPPRESS)
@given(scatter=knee_scatters(), factor=st.floats(1.5, 3.0))
def test_scg_concurrency_scaling_shifts_knee(scatter, factor):
    """Scaling the concurrency axis scales the knee proportionally."""
    model = SCGModel()
    baseline = model.estimate(scatter.concurrency, scatter.rate)
    scaled = model.estimate(scatter.concurrency * factor, scatter.rate)
    assert baseline is not None and scaled is not None
    expected = factor * baseline.optimal_concurrency
    assert abs(scaled.optimal_concurrency - expected) <= \
        max(3.0, 0.35 * expected)


# ----------------------------------------------------------------------
# Goodput vs throughput
# ----------------------------------------------------------------------
@settings(max_examples=15, deadline=None, suppress_health_check=SUPPRESS)
@given(
    spec=chain_specs(max_depth=3),
    rate=st.floats(20.0, 80.0),
    threshold=st.floats(0.001, 0.5),
)
def test_goodput_never_exceeds_throughput(spec, rate, threshold):
    """Per sampler tick goodput <= throughput, and over the sampled span
    the two rates count exactly the completions (all of them, and those
    within the threshold) in the service's completion log."""
    from repro.workloads import OpenLoopDriver
    env = Environment()
    streams = RandomStreams(7)
    app = build_chain_app(env, streams, spec)
    service = app.service("svc0")
    sampler = ConcurrencyGoodputSampler(
        env, service.server_concurrency_integral,
        lambda since, until: service.metrics.window(since, until)[1],
        threshold_provider=lambda: threshold)
    sampler.start()
    driver = OpenLoopDriver(env, app, "go", rate=rate,
                            rng=streams.stream("arr"), duration=4.0)
    driver.start()
    env.run(until=5.0)
    times, _q, goodput, throughput = sampler.series.window()
    assert times.size > 0
    assert np.all(goodput <= throughput)
    elapsed = np.diff(times, prepend=0.0)
    _departures, residence, _processing = service.metrics.window(
        0.0, float(times[-1]))
    assert np.rint(throughput * elapsed).sum() == residence.size
    assert np.rint(goodput * elapsed).sum() == \
        np.count_nonzero(residence <= threshold)


# ----------------------------------------------------------------------
# Deadline propagation
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None, suppress_health_check=SUPPRESS)
@given(
    self_times=st.lists(st.floats(0.001, 0.05), min_size=2, max_size=6),
    bump=st.floats(0.001, 0.1),
    upstream_index=st.integers(0, 4),
    sla=st.floats(0.2, 1.0),
)
def test_deadline_propagation_monotone_in_upstream_time(
        self_times, bump, upstream_index, sla):
    """Inflating any upstream service's processing time can only
    shrink the downstream threshold, by exactly the inflation."""
    upstream_index %= len(self_times) - 1
    target = f"svc{len(self_times) - 1}"
    propagator = DeadlinePropagator(sla)
    base = propagator.propagate([linear_trace(self_times)], target)
    assert base.upstream_budget == pytest.approx(sum(self_times[:-1]))

    bumped_times = list(self_times)
    bumped_times[upstream_index] += bump
    bumped = propagator.propagate([linear_trace(bumped_times)], target)
    assert bumped.upstream_budget == pytest.approx(
        base.upstream_budget + bump)
    assert bumped.threshold <= base.threshold


@settings(max_examples=40, deadline=None, suppress_health_check=SUPPRESS)
@given(
    self_times=st.lists(st.floats(0.001, 0.4), min_size=1, max_size=6),
    sla=st.floats(0.2, 1.0),
    floor=st.floats(0.05, 0.5),
)
def test_deadline_propagator_clamps_to_floor_and_sla(self_times, sla,
                                                     floor):
    propagator = DeadlinePropagator(sla, floor_fraction=floor)
    target = f"svc{len(self_times) - 1}"
    deadline = propagator.propagate([linear_trace(self_times)], target)
    assert floor * sla - 1e-9 <= deadline.threshold <= sla + 1e-9
    assert deadline.samples == 1


# ----------------------------------------------------------------------
# Exact MVA properties
# ----------------------------------------------------------------------
demand_lists = st.lists(st.floats(0.005, 0.05), min_size=1, max_size=4)


@settings(max_examples=40, deadline=None, suppress_health_check=SUPPRESS)
@given(
    demands=demand_lists,
    population=st.integers(1, 40),
    think=st.floats(0.0, 2.0),
)
def test_mva_throughput_monotone_and_bounded(demands, population, think):
    stations = [Station(f"s{i}", d) for i, d in enumerate(demands)]
    smaller = solve_mva(stations, population, think_time=think)
    larger = solve_mva(stations, population + 1, think_time=think)
    assert larger.throughput >= smaller.throughput - 1e-12
    # Classic asymptotic bounds: the bottleneck rate and the no-queueing
    # cycle both cap throughput.
    total = sum(demands)
    assert smaller.throughput <= 1.0 / max(demands) + 1e-9
    assert smaller.throughput <= population / (think + total) + 1e-9


@settings(max_examples=40, deadline=None, suppress_health_check=SUPPRESS)
@given(
    demands=demand_lists,
    population=st.integers(1, 40),
    think=st.floats(0.0, 2.0),
)
def test_mva_one_server_multi_matches_single(demands, population, think):
    """A multi-core station with one server is just a single station."""
    singles = [Station(f"s{i}", d) for i, d in enumerate(demands)]
    multis = [Station(f"s{i}", d, kind="multi", servers=1)
              for i, d in enumerate(demands)]
    a = solve_mva(singles, population, think_time=think)
    b = solve_mva(multis, population, think_time=think)
    assert b.throughput == pytest.approx(a.throughput, rel=1e-9)
    for station in singles:
        assert b.queue_lengths[station.name] == pytest.approx(
            a.queue_lengths[station.name], rel=1e-9, abs=1e-12)


# ----------------------------------------------------------------------
# Workload traces
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None, suppress_health_check=SUPPRESS)
@given(trace=workload_traces(), at=st.floats(0.0, 1.0))
def test_workload_trace_users_stay_in_band(trace, at):
    users = trace.users(at * trace.duration)
    assert 0 <= users <= trace.peak_users


# ----------------------------------------------------------------------
# Invariant checkers
# ----------------------------------------------------------------------
@settings(max_examples=15, deadline=None, suppress_health_check=SUPPRESS)
@given(spec=chain_specs(max_depth=4), count=st.integers(1, 12))
def test_invariant_checker_silent_on_healthy_runs(spec, count):
    env = Environment()
    streams = RandomStreams(9)
    app = build_chain_app(env, streams, spec)
    checker = InvariantChecker(env, app).arm()
    requests = [app.submit("go")[0] for _ in range(count)]
    env.run()
    checker.verify_quiescent()
    assert checker.events_checked > 0
    assert all(r.finished for r in requests)


class _BrokenApp:
    """An application whose books do not balance."""

    class _Log:
        total = 3

    def __init__(self):
        self.in_flight = 0
        self.latency = {"go": self._Log()}
        self.total_submitted = 2  # completed (3) + in-flight (0) != 2
        self.services = {}


@settings(max_examples=10, deadline=None, suppress_health_check=SUPPRESS)
@given(when=st.floats(0.1, 5.0))
def test_invariant_checker_fires_on_conservation_break(when):
    env = Environment()
    checker = InvariantChecker(env, _BrokenApp()).arm()
    env.call_at(when, lambda: None)
    with pytest.raises(InvariantViolation, match="conservation"):
        env.run()
    checker.disarm()
