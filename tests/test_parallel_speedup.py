"""Multi-worker speedup gate plus shared-pool reuse semantics.

The speedup assertions only run on hosts with ≥``SPEEDUP_GATE_CORES``
cores (CI's perf job), the same count below which the fan-out report
sets ``speedup_gate`` False; everywhere else they skip rather than
pretend a small container parallelized anything. The pool-reuse tests run everywhere — they are
about executor lifecycle, not wall clock.
"""

import os

import pytest

from repro.experiments import parallel as par
from repro.experiments.bench import (
    SPEEDUP_GATE_CORES,
    bench_parallel_fanout,
    fanout_goodput,
)

MULTI_CORE = (os.cpu_count() or 1) >= SPEEDUP_GATE_CORES


class TestPoolReuse:
    def setup_method(self):
        par.shutdown_pool()

    def teardown_method(self):
        par.shutdown_pool()

    def test_pool_survives_across_calls(self):
        specs = [(seed, 30) for seed in (1, 2, 3)]
        first = par.parallel_map(fanout_goodput, specs, max_workers=2)
        pool = par._pool
        assert pool is not None
        second = par.parallel_map(fanout_goodput, specs, max_workers=2)
        assert par._pool is pool  # same executor, no respawn
        assert first == second

    def test_warm_pool_spawns_eagerly(self):
        assert par._pool is None
        size = par.warm_pool(2)
        assert size == 2
        assert par._pool is not None

    def test_warm_pool_single_worker_is_noop(self):
        assert par.warm_pool(1) == 1
        assert par._pool is None

    def test_pool_grows_on_demand(self):
        par.warm_pool(2)
        small = par._pool
        par.warm_pool(3)
        assert par._pool is not small
        assert par._pool_workers == 3

    def test_shutdown_resets(self):
        par.warm_pool(2)
        par.shutdown_pool()
        assert par._pool is None
        assert par._pool_workers == 0

    def test_serial_results_match_pooled(self):
        specs = [(seed, 40) for seed in range(1, 5)]
        serial = [fanout_goodput(spec) for spec in specs]
        pooled = par.parallel_map(fanout_goodput, specs, max_workers=2)
        assert pooled == serial

    def test_chunking_preserves_order(self):
        items = list(range(40))
        result = par.parallel_map(par._identity, items, max_workers=2)
        assert result == items


class TestFanoutReporting:
    def test_single_core_report_is_honest(self):
        """Forcing the 1-core shape: serial fallback, gate off."""
        report = bench_parallel_fanout(grid_points=2, requests=20,
                                       max_workers=1)
        assert report["workers"] == 1
        assert report["speedup_gate"] is False
        assert report["identical_results"] is True

    def test_two_core_report_leaves_the_gate_off(self, monkeypatch):
        """Two workers run, but 2 cores cannot hold the 1.5x gate."""
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        try:
            report = bench_parallel_fanout(grid_points=2, requests=20,
                                           max_workers=2)
        finally:
            par.shutdown_pool()
        assert report["workers"] == 2
        assert report["cores"] == 2
        assert report["speedup_gate"] is False
        assert report["identical_results"] is True

    def test_cores_recorded(self):
        report = bench_parallel_fanout(grid_points=2, requests=20,
                                       max_workers=1)
        assert report["cores"] == (os.cpu_count() or 1)


@pytest.mark.skipif(not MULTI_CORE,
                    reason=f"speedup gate needs >= {SPEEDUP_GATE_CORES} "
                           "cores")
class TestSpeedupGate:
    def test_fanout_speedup_over_1_5x(self):
        """The CI gate: ≥2 workers and >1.5x wall-clock speedup on the
        fan-out benchmark, with byte-identical results."""
        report = bench_parallel_fanout(grid_points=6, requests=400)
        assert report["workers"] >= 2
        assert report["speedup_gate"] is True
        assert report["identical_results"] is True
        assert report["speedup"] > 1.5, (
            f"parallel fan-out speedup {report['speedup']:.2f}x <= "
            f"1.5x with {report['workers']} workers on "
            f"{report['cores']} cores")
