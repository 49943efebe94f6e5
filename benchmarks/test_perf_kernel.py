"""Micro-benchmarks of the substrate itself.

Not a paper reproduction — these track the cost of the hot paths so
regressions in simulator performance are visible: event throughput of
the DES kernel, the PS-CPU virtual-time scheduler, pool handoff, and a
full Sock Shop request round trip.
"""

import numpy as np

from benchmarks._common import SCALE, once, publish_json
from repro.app.topologies import build_sock_shop
from repro.core import SCGModel
from repro.experiments.bench import run_bench_suite
from repro.resources import ProcessorSharingCpu, SoftResourcePool
from repro.sim import Environment, RandomStreams


def test_perf_event_loop_timeout_chain(benchmark):
    """Schedule+process cost of a long timeout chain."""

    def run():
        env = Environment()

        def chain(env):
            for _ in range(10_000):
                yield env.timeout(0.001)

        env.process(chain(env))
        env.run()
        return env.now

    result = benchmark(run)
    assert result > 0


def test_perf_cpu_processor_sharing(benchmark):
    """10k jobs through a contended PS CPU."""

    def run():
        env = Environment()
        cpu = ProcessorSharingCpu(env, cores=4, overhead=0.01)

        def feeder(env):
            for _ in range(10_000):
                cpu.submit(0.002)
                yield env.timeout(0.0005)

        env.process(feeder(env))
        env.run()
        return cpu.work_done()

    work = benchmark(run)
    assert work > 0


def test_perf_pool_handoff(benchmark):
    """Acquire/release churn through a small pool with queueing."""

    def run():
        env = Environment()
        pool = SoftResourcePool(env, capacity=4)

        def worker(env):
            for _ in range(100):
                yield pool.acquire()
                yield env.timeout(0.001)
                pool.release()

        for _ in range(50):
            env.process(worker(env))
        env.run()
        return pool.total_granted

    granted = benchmark(run)
    assert granted == 5000


def test_perf_sock_shop_request_roundtrip(benchmark):
    """End-to-end cost of simulating 500 cart requests."""

    def run():
        env = Environment()
        app = build_sock_shop(env, RandomStreams(1))

        def feeder(env):
            for _ in range(500):
                app.submit("cart")
                yield env.timeout(0.004)

        env.process(feeder(env))
        env.run()
        return app.latency["cart"].total

    completed = benchmark(run)
    assert completed == 500


def test_perf_kernel_report(benchmark):
    """Machine-readable throughput report (``BENCH_kernel.json``).

    Aggregates the same hot paths as the micro-benchmarks above into
    one JSON artifact: events/sec for the kernel and PS CPU,
    requests/sec for the Sock Shop round trip, and the parallel
    fan-out speedup. The perf-regression smoke test
    (``tests/test_perf_regression.py``) diffs this against the
    committed baseline. Honors ``REPRO_BENCH_SCALE``; reduced-scale
    runs land in ``results/smoke/`` and never touch the committed
    full-scale artifact.
    """
    report = once(benchmark,
                  lambda: run_bench_suite(scale=SCALE, repeats=3))
    path = publish_json("BENCH_kernel", report)
    assert path.exists()
    stats = report["benchmarks"]
    assert stats["timeout_chain"]["events_per_sec"] > 0
    assert stats["sock_shop"]["requests_per_sec"] > 0
    assert stats["parallel_fanout"]["identical_results"], (
        "parallel fan-out must reproduce the serial results exactly")


def test_perf_scg_estimate(benchmark):
    """One SCG estimation pass over a 600-pair window."""
    rng = np.random.default_rng(0)
    q = rng.uniform(0.5, 15.0, 600)
    gp = np.clip(np.where(q < 8, 280 * q / 8, 280 - 6 * (q - 8)) +
                 rng.normal(0, 15, 600), 0, None)
    model = SCGModel()

    estimate = benchmark(lambda: model.estimate(q, gp, threshold=0.2))
    assert estimate is not None
