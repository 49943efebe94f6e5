"""MonitoringModule retention: memory stays bounded on long runs and
pruning never removes samples the analysis window still needs."""

import numpy as np
import pytest

from repro.core.monitoring import MonitoringModule
from repro.sim import Environment, RandomStreams
from tests.conftest import build_chain


def _drive(env, app, rate_hz=20.0, request_type="go"):
    """A deterministic open-loop driver process."""
    def loop():
        while True:
            app.submit(request_type)
            yield env.timeout(1.0 / rate_hz)
    env.process(loop(), name="driver")


@pytest.fixture
def loaded_app():
    env = Environment()
    streams = RandomStreams(7)
    app = build_chain(env, streams, depth=2, demand_ms=4.0, threads=8)
    return env, app


def test_warehouse_and_logs_bounded_by_retention(loaded_app):
    env, app = loaded_app
    retention = 30.0
    monitoring = MonitoringModule(env, app, interval=1.0,
                                  retention=retention)
    monitoring.start()
    _drive(env, app)

    sizes = []
    for checkpoint in (60.0, 120.0, 180.0, 240.0):
        env.run(until=checkpoint)
        trace_count = len(app.warehouse.traces(0.0, env.now))
        completion_count = sum(
            svc.metrics.window(0.0, env.now)[0].size
            for svc in app.services.values())
        sizes.append((trace_count, completion_count))

    # Under a steady arrival rate, retained state must plateau instead
    # of growing linearly with simulated time: each checkpoint holds at
    # most ~retention seconds of history (2x slack for prune cadence).
    counts = np.asarray(sizes, dtype=float)
    assert counts[-1, 0] <= 2.0 * counts[0, 0]
    assert counts[-1, 1] <= 2.0 * counts[0, 1]
    # And nothing older than the retention horizon survives a cycle.
    horizon = env.now - 2 * retention
    assert not app.warehouse.traces(0.0, horizon)
    for svc in app.services.values():
        times = svc.metrics.window(0.0, horizon)[0]
        assert times.size == 0


def test_pruning_preserves_analysis_window(loaded_app):
    env, app = loaded_app
    retention = 30.0
    window = 15.0  # analysis window < retention, as controllers assume
    monitoring = MonitoringModule(env, app, interval=1.0,
                                  retention=retention)
    monitoring.start()
    _drive(env, app)

    for checkpoint in (45.0, 90.0, 150.0):
        env.run(until=checkpoint)
        since = env.now - window
        # Traces inside the window survive every prune cycle...
        window_traces = app.warehouse.traces(since, env.now)
        assert window_traces, "analysis window lost all traces"
        assert all(since <= root.departure < env.now
                   for root in window_traces)
        # ...and so do per-service completions and utilization samples.
        for name, svc in app.services.items():
            times, latencies, processing = svc.metrics.window(
                since, env.now)
            assert times.size > 0
            assert latencies.size == processing.size == times.size
            util_times, util, _busy = monitoring.cpu[name].window(
                since, env.now)
            # One sample per interval over the window (edges tolerant).
            assert util_times.size >= int(window) - 2
            assert np.all(util >= 0.0)


def test_utilization_series_bounded(loaded_app):
    env, app = loaded_app
    monitoring = MonitoringModule(env, app, interval=0.5,
                                  retention=20.0)
    monitoring.start()
    _drive(env, app, rate_hz=5.0)
    env.run(until=300.0)
    for name in app.services:
        # 20 s retention at 0.5 s cadence -> ~40 live samples, never
        # the ~600 an unpruned series would hold.
        assert len(monitoring.cpu[name]) <= 60
