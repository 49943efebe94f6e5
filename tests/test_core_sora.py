"""Tests for the Sora / ConScale adaptation frameworks."""

import pytest

from repro.app import Application, Call, Compute, Microservice, Operation
from repro.autoscalers import NullAutoscaler, VerticalPodAutoscaler
from repro.core import (
    ClientPoolTarget,
    ConScaleController,
    EstimatorConfig,
    FrameworkConfig,
    MonitoringModule,
    SCTModel,
    SoraController,
    ThreadPoolTarget,
)
from repro.sim import Constant, Environment, Exponential, RandomStreams
from repro.workloads import OpenLoopDriver


def build_app(env, streams, *, threads=6, demand=0.012):
    app = Application(env)
    svc = Microservice(env, "svc", streams.stream("svc"), cores=2.0,
                       thread_pool_size=threads, cpu_overhead=0.02)
    backend = Microservice(env, "backend", streams.stream("be"), cores=4.0)
    backend.add_operation(Operation("default", [Compute(Constant(0.004))]))
    svc.add_operation(Operation("default", [
        Compute(Exponential(demand)), Call("backend")]))
    app.add_service(svc)
    app.add_service(backend)
    app.set_entrypoint("go", "svc", "default")
    return app


def bursty_rate(t):
    """Bursts well above a 2-thread pool's ~125/s ceiling."""
    return 150.0 if (t % 20.0) < 10.0 else 40.0


class TestFrameworkConfig:
    @pytest.mark.parametrize("kwargs", [
        {"control_period": 0.0},
        {"min_allocation": 0},
        {"min_allocation": 10, "max_allocation": 5},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FrameworkConfig(**kwargs)


class TestSoraController:
    def make(self, env, streams, app, **kwargs):
        monitoring = MonitoringModule(env, app)
        target = ThreadPoolTarget(app.service("svc"))
        controller = SoraController(env, app, monitoring, [target],
                                    sla=0.3, **kwargs)
        return controller, target

    def test_requires_positive_sla(self):
        env = Environment()
        streams = RandomStreams(3)
        app = build_app(env, streams)
        monitoring = MonitoringModule(env, app)
        target = ThreadPoolTarget(app.service("svc"))
        with pytest.raises(ValueError):
            SoraController(env, app, monitoring, [target], sla=0.0)

    def test_requires_targets(self):
        env = Environment()
        streams = RandomStreams(3)
        app = build_app(env, streams)
        monitoring = MonitoringModule(env, app)
        with pytest.raises(ValueError):
            SoraController(env, app, monitoring, [], sla=0.3)

    def test_adapts_under_load(self):
        env = Environment()
        streams = RandomStreams(3)
        app = build_app(env, streams, threads=2)
        controller, target = self.make(env, streams, app)
        controller.start()
        driver = OpenLoopDriver(env, app, "go", rate=bursty_rate,
                                rng=streams.stream("arr"), duration=120.0)
        driver.start()
        env.run(until=120.0)
        # Under-allocated 2 threads with ~110/s bursts: must grow.
        assert controller.actions
        assert target.allocation() > 2

    def test_threshold_propagation_updates(self):
        env = Environment()
        streams = RandomStreams(3)
        app = build_app(env, streams)
        controller, target = self.make(env, streams, app)
        controller.start()
        driver = OpenLoopDriver(env, app, "go", rate=50.0,
                                rng=streams.stream("arr"), duration=60.0)
        driver.start()
        env.run(until=60.0)
        threshold = controller.threshold_for(target)
        # Propagated threshold below the SLA (upstream self time > 0)
        # but above the floor.
        assert 0.03 < threshold < 0.3

    def test_localization_reports_critical_service(self):
        env = Environment()
        streams = RandomStreams(3)
        app = build_app(env, streams)
        controller, _target = self.make(env, streams, app)
        controller.start()
        driver = OpenLoopDriver(env, app, "go", rate=bursty_rate,
                                rng=streams.stream("arr"), duration=60.0)
        driver.start()
        env.run(until=60.0)
        assert controller.reports
        assert controller.reports[-1].critical_service in ("svc", "backend")

    def test_vertical_scale_bootstraps_allocation(self):
        env = Environment()
        streams = RandomStreams(3)
        app = build_app(env, streams)
        monitoring = MonitoringModule(env, app)
        target = ThreadPoolTarget(app.service("svc"))
        vpa = VerticalPodAutoscaler(env, app.service("svc"), monitoring,
                                    high=0.7, max_cores=4.0)
        controller = SoraController(env, app, monitoring, [target],
                                    sla=0.3, autoscaler=vpa)
        controller.start()
        # util ~ 130 * 12ms / 2 cores = 0.78 > 0.7: VPA scales up.
        driver = OpenLoopDriver(env, app, "go", rate=130.0,
                                rng=streams.stream("arr"), duration=90.0)
        driver.start()
        env.run(until=90.0)
        bootstraps = [a for a in controller.actions
                      if a.trigger == "bootstrap"]
        assert bootstraps, "vertical scale should trigger a bootstrap"
        first = bootstraps[0]
        assert first.after > first.before

    def test_idle_system_not_shrunk_without_pressure(self):
        env = Environment()
        streams = RandomStreams(3)
        app = build_app(env, streams, threads=30)
        controller, target = self.make(env, streams, app)
        controller.start()
        # Trickle load: pool never pressed; allocation must not shrink.
        driver = OpenLoopDriver(env, app, "go", rate=5.0,
                                rng=streams.stream("arr"), duration=90.0)
        driver.start()
        env.run(until=90.0)
        assert target.allocation() == 30

    def test_min_allocation_respected(self):
        env = Environment()
        streams = RandomStreams(3)
        app = build_app(env, streams, threads=4)
        monitoring = MonitoringModule(env, app)
        target = ThreadPoolTarget(app.service("svc"))
        controller = SoraController(
            env, app, monitoring, [target], sla=0.3,
            config=FrameworkConfig(min_allocation=3))
        controller.start()
        driver = OpenLoopDriver(env, app, "go", rate=bursty_rate,
                                rng=streams.stream("arr"), duration=90.0)
        driver.start()
        env.run(until=90.0)
        assert target.allocation() >= 3

    def test_actions_record_threshold(self):
        env = Environment()
        streams = RandomStreams(3)
        app = build_app(env, streams, threads=3)
        controller, _t = self.make(env, streams, app)
        controller.start()
        driver = OpenLoopDriver(env, app, "go", rate=bursty_rate,
                                rng=streams.stream("arr"), duration=90.0)
        driver.start()
        env.run(until=90.0)
        assert all(a.threshold is not None for a in controller.actions)

    def test_rounds_bound_sampler_memory(self):
        env = Environment()
        streams = RandomStreams(3)
        app = build_app(env, streams, threads=3)
        window = 15.0
        controller, _t = self.make(
            env, streams, app,
            estimator_config=EstimatorConfig(window=window))
        horizons = []
        control = controller.control

        def control_and_check():
            control()
            horizon = env.now - 2 * window
            horizons.append(horizon)
            for sampler in controller.samplers.values():
                assert len(sampler.series) > 0
                times = sampler.series.window(until=horizon)[0]
                assert times.size == 0, (env.now, times[0])

        controller.control = control_and_check
        controller.start()
        driver = OpenLoopDriver(env, app, "go", rate=bursty_rate,
                                rng=streams.stream("arr"), duration=90.0)
        driver.start()
        env.run(until=90.5)
        # Six rounds over six windows: the last four check a horizon
        # past the first samples.
        assert len(horizons) == 6


class TestConScaleController:
    def test_ignores_sla_kwarg(self):
        env = Environment()
        streams = RandomStreams(3)
        app = build_app(env, streams)
        monitoring = MonitoringModule(env, app)
        target = ThreadPoolTarget(app.service("svc"))
        controller = ConScaleController(env, app, monitoring, [target],
                                        sla=0.3)
        assert controller.sla is None
        assert controller.model_name == "sct"

    def test_adapts_with_throughput_model(self):
        env = Environment()
        streams = RandomStreams(3)
        app = build_app(env, streams, threads=2)
        monitoring = MonitoringModule(env, app)
        target = ThreadPoolTarget(app.service("svc"))
        controller = ConScaleController(env, app, monitoring, [target])
        controller.start()
        driver = OpenLoopDriver(env, app, "go", rate=bursty_rate,
                                rng=streams.stream("arr"), duration=120.0)
        driver.start()
        env.run(until=120.0)
        assert controller.actions
        assert target.allocation() > 2
        # SCT estimates throughput pairs, with no threshold.
        assert isinstance(controller.model, SCTModel)
        assert all(action.threshold == float("inf")
                   for action in controller.actions)


class TestClientPoolReplicaTracking:
    def test_horizontal_scale_reasserts_allocation(self):
        env = Environment()
        streams = RandomStreams(3)
        app = Application(env)
        owner = Microservice(env, "owner", streams.stream("o"), cores=4.0,
                             thread_pool_size=64)
        downstream = Microservice(env, "down", streams.stream("d"),
                                  cores=2.0)
        downstream.add_operation(Operation("default", [
            Compute(Constant(0.005))]))
        owner.add_client_pool("db", 10)
        owner.add_operation(Operation("default", [
            Compute(Constant(0.002)), Call("down", via_pool="db")]))
        app.add_service(owner)
        app.add_service(downstream)
        app.set_entrypoint("go", "owner", "default")

        monitoring = MonitoringModule(env, app)
        target = ClientPoolTarget(owner, "db", downstream)
        scaler = NullAutoscaler(env)
        controller = SoraController(env, app, monitoring, [target],
                                    sla=0.3, autoscaler=scaler)
        controller.start()
        env.run(until=1.0)

        # Simulate an HPA action through the autoscaler event plumbing.
        from repro.autoscalers import ScaleEvent
        downstream.scale_replicas(3)
        scaler._emit(ScaleEvent(time=env.now, service="down",
                                kind="horizontal", before=1, after=3))
        assert target.pool.capacity == 30  # 10 per replica x 3
