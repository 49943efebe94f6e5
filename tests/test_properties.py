"""Cross-cutting property-based tests on system invariants.

These exercise the full stack (kernel + resources + app + tracing) with
randomized structure and workload, asserting conservation laws and
ordering invariants that must hold for *any* configuration.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.app import Compute
from repro.core.targets import ThreadPoolTarget
from repro.metrics import ConcurrencyGoodputSampler
from repro.sim import Environment, Exponential, RandomStreams
from repro.tracing import extract_critical_path

from tests.conftest import build_chain

SUPPRESS = [HealthCheck.too_slow]


@settings(max_examples=25, deadline=None, suppress_health_check=SUPPRESS)
@given(
    depth=st.integers(1, 6),
    demand_ms=st.floats(0.5, 10.0),
    threads=st.integers(1, 8),
    count=st.integers(1, 12),
)
def test_every_submitted_request_completes(depth, demand_ms, threads,
                                           count):
    env = Environment()
    streams = RandomStreams(0)
    app = build_chain(env, streams, depth, demand_ms, threads)
    requests = [app.submit("go")[0] for _ in range(count)]
    env.run()
    assert all(r.finished for r in requests)
    assert app.in_flight == 0
    assert app.latency["go"].total == count


@settings(max_examples=25, deadline=None, suppress_health_check=SUPPRESS)
@given(
    depth=st.integers(1, 5),
    demand_ms=st.floats(0.5, 5.0),
    count=st.integers(1, 10),
)
def test_trace_timestamps_are_nested(depth, demand_ms, count):
    """Child spans must sit inside their parents' intervals."""
    env = Environment()
    streams = RandomStreams(1)
    app = build_chain(env, streams, depth, demand_ms, threads=4)
    requests = [app.submit("go")[0] for _ in range(count)]
    env.run()
    for request in requests:
        for span in request.root_span.walk():
            assert span.departure >= span.arrival
            if span.parent is not None:
                assert span.arrival >= span.parent.arrival - 1e-9
                assert span.departure <= span.parent.departure + 1e-9


@settings(max_examples=25, deadline=None, suppress_health_check=SUPPRESS)
@given(
    depth=st.integers(1, 5),
    demand_ms=st.floats(0.5, 5.0),
    count=st.integers(1, 10),
)
def test_critical_path_bounded_by_response_time(depth, demand_ms, count):
    env = Environment()
    streams = RandomStreams(2)
    app = build_chain(env, streams, depth, demand_ms, threads=4)
    requests = [app.submit("go")[0] for _ in range(count)]
    env.run()
    for request in requests:
        path = extract_critical_path(request.root_span)
        assert path.duration <= request.response_time + 1e-9
        # Self times along the path can never exceed its duration.
        assert sum(path.self_times().values()) <= path.duration + 1e-9


@settings(max_examples=25, deadline=None, suppress_health_check=SUPPRESS)
@given(
    depth=st.integers(2, 5),
    demand_ms=st.floats(0.5, 5.0),
)
def test_self_times_decompose_linear_chain(depth, demand_ms):
    """In a linear chain the spans' self times partition the root
    duration exactly (no parallelism, no gaps)."""
    env = Environment()
    streams = RandomStreams(3)
    app = build_chain(env, streams, depth, demand_ms, threads=4)
    request, _proc = app.submit("go")
    env.run()
    spans = list(request.root_span.walk())
    total_self = sum(span.self_time() for span in spans)
    assert total_self == pytest.approx(request.root_span.duration,
                                       rel=1e-9)


@settings(max_examples=20, deadline=None, suppress_health_check=SUPPRESS)
@given(
    depth=st.integers(1, 3),
    rate=st.floats(10.0, 80.0),
    threshold_a=st.floats(0.001, 0.1),
    threshold_b=st.floats(0.1, 1.0),
)
def test_goodput_monotone_in_threshold(depth, rate, threshold_a,
                                       threshold_b):
    """Per sampler tick, goodput at a tighter threshold never exceeds
    goodput at a looser one, which never exceeds throughput."""
    from repro.workloads import OpenLoopDriver
    env = Environment()
    streams = RandomStreams(4)
    app = build_chain(env, streams, depth=depth, demand_ms=5.0, threads=4)
    target = ThreadPoolTarget(app.service("svc0"))
    samplers = [
        ConcurrencyGoodputSampler(
            env, target.concurrency_integral, target.completion_latencies,
            threshold_provider=lambda threshold=threshold: threshold)
        for threshold in sorted((threshold_a, threshold_b))]
    for sampler in samplers:
        sampler.start()
    driver = OpenLoopDriver(env, app, "go", rate=rate,
                            rng=streams.stream("arr"), duration=5.0)
    driver.start()
    env.run(until=6.0)
    times_lo, _q, goodput_lo, throughput = samplers[0].series.window()
    times_hi, _q, goodput_hi, throughput_hi = samplers[1].series.window()
    assert times_lo.size > 0
    np.testing.assert_array_equal(times_lo, times_hi)
    np.testing.assert_array_equal(throughput, throughput_hi)
    assert np.all(goodput_lo <= goodput_hi)
    assert np.all(goodput_hi <= throughput)
    assert throughput.sum() > 0


@settings(max_examples=15, deadline=None, suppress_health_check=SUPPRESS)
@given(
    seed=st.integers(0, 2 ** 16),
    threads=st.integers(1, 6),
    scale_at=st.floats(0.5, 4.0),
    new_threads=st.integers(1, 12),
)
def test_pool_resize_never_loses_requests(seed, threads, scale_at,
                                          new_threads):
    """Resizing the server pool mid-flight must not lose or duplicate
    completions."""
    env = Environment()
    streams = RandomStreams(seed)
    app = build_chain(env, streams, depth=2, demand_ms=8.0,
                      threads=threads)
    svc = app.service("svc0")
    count = 30
    from repro.workloads import OpenLoopDriver
    driver = OpenLoopDriver(env, app, "go", rate=60.0,
                            rng=streams.stream("arr"), duration=2.0)

    def resizer():
        yield env.timeout(scale_at)
        svc.set_thread_pool_size(new_threads)

    env.process(resizer())
    driver.start()
    env.run()
    assert app.latency["go"].total == driver.submitted
    assert app.in_flight == 0
    for replica in svc.replicas:
        assert replica.server_pool.in_use == 0


@settings(max_examples=15, deadline=None, suppress_health_check=SUPPRESS)
@given(
    seed=st.integers(0, 2 ** 16),
    replicas_mid=st.integers(1, 5),
)
def test_horizontal_scaling_never_loses_requests(seed, replicas_mid):
    env = Environment()
    streams = RandomStreams(seed)
    app = build_chain(env, streams, depth=2, demand_ms=8.0, threads=3)
    svc = app.service("svc0")
    from repro.workloads import OpenLoopDriver
    driver = OpenLoopDriver(env, app, "go", rate=80.0,
                            rng=streams.stream("arr"), duration=3.0)

    def scaler():
        yield env.timeout(1.0)
        svc.scale_replicas(replicas_mid)
        yield env.timeout(1.0)
        svc.scale_replicas(1)

    env.process(scaler())
    driver.start()
    env.run()
    assert app.latency["go"].total == driver.submitted
    assert app.in_flight == 0


@settings(max_examples=10, deadline=None, suppress_health_check=SUPPRESS)
@given(seed=st.integers(0, 2 ** 16))
def test_identical_seeds_identical_traces(seed):
    def run():
        env = Environment()
        streams = RandomStreams(seed)
        app = build_chain(env, streams, depth=3, demand_ms=4.0,
                          threads=3)
        # Exponential demand makes determinism non-trivial.
        svc = app.service("svc1")
        svc.operations["default"].steps[0] = Compute(
            Exponential(0.004))
        from repro.workloads import OpenLoopDriver
        driver = OpenLoopDriver(env, app, "go", rate=50.0,
                                rng=streams.stream("arr"), duration=3.0)
        driver.start()
        env.run()
        times, latencies = app.latency["go"].window()
        return list(np.round(times, 12)), list(np.round(latencies, 12))

    assert run() == run()
