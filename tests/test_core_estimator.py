"""Tests for targets, sampled SCG/SCT estimation, and monitoring."""

import pytest

from repro.app import Application, Call, Compute, Microservice, Operation
from repro.core import (
    ClientPoolTarget,
    EstimatorConfig,
    MonitoringModule,
    SCGModel,
    SCTModel,
    ThreadPoolTarget,
)
from repro.metrics import ConcurrencyGoodputSampler
from repro.sim import Constant, Environment, Exponential, RandomStreams
from repro.workloads import OpenLoopDriver


def build_app(env, streams, *, threads=4, conns=None, demand=0.01):
    app = Application(env)
    svc = Microservice(env, "svc", streams.stream("svc"), cores=2.0,
                       thread_pool_size=threads)
    backend = Microservice(env, "backend", streams.stream("be"), cores=4.0)
    backend.add_operation(Operation("default", [Compute(Constant(0.002))]))
    steps = [Compute(Exponential(demand))]
    if conns is not None:
        svc.add_client_pool("db", conns)
        steps.append(Call("backend", via_pool="db"))
    else:
        steps.append(Call("backend"))
    svc.add_operation(Operation("default", steps))
    app.add_service(svc)
    app.add_service(backend)
    app.set_entrypoint("go", "svc", "default")
    return app


class TestThreadPoolTarget:
    def test_requires_thread_pool(self):
        env = Environment()
        svc = Microservice(env, "async", RandomStreams(0).stream("x"))
        with pytest.raises(ValueError):
            ThreadPoolTarget(svc)

    def test_allocation_and_apply(self):
        env = Environment()
        streams = RandomStreams(0)
        app = build_app(env, streams, threads=4)
        target = ThreadPoolTarget(app.service("svc"))
        assert target.name == "svc.threads"
        assert target.allocation() == 4
        target.apply(9)
        assert target.allocation() == 9
        assert app.service("svc").thread_pool_size == 9

    def test_total_allocation_scales_with_replicas(self):
        env = Environment()
        streams = RandomStreams(0)
        app = build_app(env, streams, threads=4)
        app.service("svc").scale_replicas(3)
        target = ThreadPoolTarget(app.service("svc"))
        assert target.total_allocation() == 12

    def test_apply_invalid(self):
        env = Environment()
        app = build_app(env, RandomStreams(0))
        with pytest.raises(ValueError):
            ThreadPoolTarget(app.service("svc")).apply(0)

    def test_concurrency_integral_advances_under_load(self):
        env = Environment()
        streams = RandomStreams(0)
        app = build_app(env, streams)
        target = ThreadPoolTarget(app.service("svc"))
        before = target.concurrency_integral()
        driver = OpenLoopDriver(env, app, "go", rate=100.0,
                                rng=streams.stream("arr"), duration=5.0)
        driver.start()
        env.run()
        assert target.concurrency_integral() > before


class TestClientPoolTarget:
    def test_requires_existing_pool(self):
        env = Environment()
        streams = RandomStreams(0)
        app = build_app(env, streams, conns=3)
        with pytest.raises(ValueError):
            ClientPoolTarget(app.service("svc"), "nope",
                             app.service("backend"))

    def test_apply_multiplies_by_downstream_replicas(self):
        env = Environment()
        streams = RandomStreams(0)
        app = build_app(env, streams, conns=3)
        backend = app.service("backend")
        backend.scale_replicas(4)
        target = ClientPoolTarget(app.service("svc"), "db", backend)
        target.apply(5)
        assert target.pool.capacity == 20
        assert target.allocation() == 5
        assert target.total_allocation() == 20

    def test_completions_come_from_downstream(self):
        env = Environment()
        streams = RandomStreams(0)
        app = build_app(env, streams, conns=3)
        target = ClientPoolTarget(app.service("svc"), "db",
                                  app.service("backend"))
        driver = OpenLoopDriver(env, app, "go", rate=50.0,
                                rng=streams.stream("arr"), duration=5.0)
        driver.start()
        env.run()
        latencies = target.completion_latencies(0.0, env.now + 1.0)
        assert latencies.size == app.service("backend").metrics.total


class TestEstimatorConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EstimatorConfig(sampling_interval=0.0)
        with pytest.raises(ValueError):
            EstimatorConfig(window=0.05, sampling_interval=0.1)
        with pytest.raises(ValueError):
            EstimatorConfig(window=0.0)


def run_sampler(*, load: bool) -> ConcurrencyGoodputSampler:
    """A pair sampler on ``svc``'s thread pool (goodput threshold
    300 ms) after 62 s under bursty load, so the observed concurrency
    spans many levels, or under none."""
    env = Environment()
    streams = RandomStreams(1)
    app = build_app(env, streams, threads=8, demand=0.02)
    target = ThreadPoolTarget(app.service("svc"))
    sampler = ConcurrencyGoodputSampler(
        env, concurrency_integral=target.concurrency_integral,
        completion_source=target.completion_latencies,
        threshold_provider=lambda: 0.3)
    sampler.start()
    if load:
        OpenLoopDriver(
            env, app, "go",
            rate=lambda t: 110.0 if (t % 20.0) < 10.0 else 25.0,
            rng=streams.stream("arr"), duration=60.0).start()
    env.run(until=62.0)
    return sampler


class TestSampledEstimation:
    def test_produces_estimates_under_load(self):
        sampler = run_sampler(load=True)
        estimate = SCGModel().estimate(*sampler.pairs(since=32.0),
                                       threshold=0.3)
        assert estimate is not None
        assert estimate.optimal_concurrency >= 1
        assert estimate.threshold == 0.3

    def test_no_data_yields_none(self):
        sampler = run_sampler(load=False)
        assert SCGModel().estimate(*sampler.pairs(), threshold=0.3) is None

    def test_sct_mode_uses_throughput(self):
        sampler = run_sampler(load=True)
        concurrency, throughput = sampler.pairs(since=32.0,
                                                use_threshold=False)
        goodput = sampler.pairs(since=32.0)[1]
        assert (throughput >= goodput).all()
        estimate = SCTModel().estimate(concurrency, throughput)
        assert estimate is not None
        assert estimate.threshold is None


class TestMonitoringModule:
    def test_utilization_tracks_load(self):
        env = Environment()
        streams = RandomStreams(1)
        app = build_app(env, streams, threads=16, demand=0.02)
        monitoring = MonitoringModule(env, app, interval=1.0)
        monitoring.start()
        # Saturating: 2 cores, demand 20ms -> capacity ~100/s at rate 90.
        driver = OpenLoopDriver(env, app, "go", rate=90.0,
                                rng=streams.stream("arr"), duration=30.0)
        driver.start()
        env.run(until=32.0)
        utilization = monitoring.utilization_over("svc", 20.0)
        assert 0.5 < utilization <= 1.05
        assert monitoring.utilization_over("backend", 20.0) < 0.3

    def test_idle_utilization_zero(self):
        env = Environment()
        app = build_app(env, RandomStreams(1))
        monitoring = MonitoringModule(env, app, interval=1.0)
        monitoring.start()
        env.run(until=10.0)
        assert monitoring.utilization_over("svc", 5.0) == 0.0

    def test_utilizations_covers_all_services(self):
        env = Environment()
        app = build_app(env, RandomStreams(1))
        monitoring = MonitoringModule(env, app, interval=1.0)
        monitoring.start()
        env.run(until=3.0)
        assert set(monitoring.utilizations(2.0)) == {"svc", "backend"}

    def test_retention_prunes_warehouse(self):
        env = Environment()
        streams = RandomStreams(1)
        app = build_app(env, streams)
        monitoring = MonitoringModule(env, app, interval=1.0,
                                      retention=10.0)
        monitoring.start()
        driver = OpenLoopDriver(env, app, "go", rate=50.0,
                                rng=streams.stream("arr"), duration=40.0)
        driver.start()
        env.run(until=45.0)
        # Only ~10s of traces retained out of 40s of traffic.
        assert len(app.warehouse) < 50 * 15

    def test_invalid_parameters(self):
        env = Environment()
        app = build_app(env, RandomStreams(1))
        with pytest.raises(ValueError):
            MonitoringModule(env, app, interval=0.0)
        with pytest.raises(ValueError):
            MonitoringModule(env, app, retention=0.0)
