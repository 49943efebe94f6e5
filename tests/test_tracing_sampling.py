"""Trace samplers, streaming analytics, and fingerprint identity.

Covers the scale-proof analytics contracts:

* head/tail sampler semantics (retention guarantees, coverage stats);
* warehouse integration — ``total_recorded`` and the streaming
  aggregator see *every* finished trace, the ring only the sampled-in;
* streaming P² self-time quantiles vs the exhaustive per-trace walk;
* replay-fingerprint identity: sampled, unsampled, and obs-disabled
  runs of the same seeded scenario are byte-identical;
* ring-buffer eviction keeps the per-service indexes consistent.
"""

import numpy as np
import pytest

import repro.obs as obs_mod
from repro.experiments import sock_shop_cart_scenario
from repro.sim import Environment, RandomStreams
from repro.tracing import (
    CriticalPathAggregator,
    HeadSampler,
    Span,
    TailSampler,
    TraceWarehouse,
    extract_critical_path,
    sampler_stream,
)
from repro.validation.fingerprint import RunRecorder
from repro.workloads import OpenLoopDriver, WorkloadTrace

from tests.conftest import build_chain


def make_trace(trace_id=1, duration=0.1, cancelled_leaf=False):
    """A two-span tree finishing at ``duration`` seconds."""
    root = Span(trace_id=trace_id, service="front", operation="op",
                arrival=0.0)
    root.started = 0.0
    child = Span(trace_id=trace_id, service="back", operation="op",
                 arrival=duration * 0.2, parent=root)
    child.started = child.arrival
    child.departure = duration * 0.6
    child.cancelled = cancelled_leaf
    root.departure = duration
    return root


def rng(seed=0):
    return np.random.default_rng(seed)


class TestHeadSampler:
    def test_rate_bounds_are_absolute(self):
        sampler = HeadSampler(0.0, rng())
        assert not any(sampler.sample(make_trace(i)) for i in range(50))
        sampler = HeadSampler(1.0, rng())
        assert all(sampler.sample(make_trace(i)) for i in range(50))
        assert sampler.kept_by_reason == {"head": 50}

    def test_decisions_are_rng_deterministic(self):
        def decisions(seed):
            sampler = HeadSampler(0.3, rng(seed))
            return [sampler.sample(make_trace(i)) for i in range(200)]

        assert decisions(7) == decisions(7)
        assert decisions(7) != decisions(8)

    def test_head_sampling_downsamples_the_tail_too(self):
        # The failure mode tail sampling fixes: a head sampler drops
        # SLO violators along with the bulk.
        sampler = HeadSampler(0.5, rng(3), slo_threshold=0.05)
        for index in range(400):
            sampler.sample(make_trace(index, duration=0.1))
        assert sampler.slo_violating_total == 400
        assert 0.0 < sampler.slo_retention < 1.0

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError, match="rate"):
            HeadSampler(1.5, rng())


class TestTailSampler:
    def test_slo_violators_always_kept(self):
        sampler = TailSampler(0.0, rng(), slo_threshold=0.05)
        assert sampler.sample(make_trace(duration=0.1))
        assert not sampler.sample(make_trace(duration=0.01))
        assert sampler.kept_by_reason == {"slo": 1}
        assert sampler.slo_retention == 1.0

    def test_cancelled_spans_anywhere_keep_the_trace(self):
        sampler = TailSampler(0.0, rng(), slo_threshold=10.0)
        assert sampler.sample(make_trace(duration=0.01,
                                         cancelled_leaf=True))
        assert not sampler.sample(make_trace(duration=0.01))
        assert sampler.kept_by_reason == {"cancelled": 1}

    def test_flag_predicate_keeps_the_trace(self):
        flagged = {3, 5}
        sampler = TailSampler(0.0, rng(),
                              keep_if=lambda r: r.trace_id in flagged)
        kept = [i for i in range(8)
                if sampler.sample(make_trace(i, duration=0.01))]
        assert kept == [3, 5]
        assert sampler.kept_by_reason == {"flagged": 2}

    def test_retention_reasons_rank_slo_first(self):
        # A violating trace with a cancelled span books under "slo".
        sampler = TailSampler(0.0, rng(), slo_threshold=0.05)
        sampler.sample(make_trace(duration=0.1, cancelled_leaf=True))
        assert sampler.kept_by_reason == {"slo": 1}

    def test_bulk_rate_bounds(self):
        sampler = TailSampler(1.0, rng(), slo_threshold=10.0)
        assert all(sampler.sample(make_trace(i, duration=0.01))
                   for i in range(20))
        assert sampler.kept_by_reason == {"bulk": 20}
        assert sampler.stored_fraction == 1.0

    def test_coverage_snapshot_shape(self):
        sampler = TailSampler(0.25, rng(), slo_threshold=0.05)
        for index in range(40):
            sampler.sample(make_trace(index,
                                      duration=0.1 if index < 4 else 0.01))
        snap = sampler.coverage()
        assert snap["sampler"] == "tail"
        assert snap["rate"] == 0.25
        assert snap["total"] == 40
        assert snap["kept"] == sum(snap["kept_by_reason"].values())
        assert snap["slo_violating"] == {
            "total": 4, "kept": 4, "retention": 1.0}

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError, match="rate"):
            TailSampler(-0.1, rng())


class TestWarehouseSampling:
    def run_chain(self, warehouse, requests=60):
        env = Environment()
        streams = RandomStreams(5)
        app = build_chain(env, streams, depth=3, demand_ms=2.0,
                          threads=4)
        app.warehouse = warehouse
        for _ in range(requests):
            app.submit("go")
        env.run()
        return app

    def test_aggregator_sees_every_trace_ring_stores_the_sample(self):
        warehouse = TraceWarehouse(
            sampler=TailSampler(0.0, rng(), slo_threshold=1e9),
            analytics=CriticalPathAggregator())
        app = self.run_chain(warehouse)
        assert warehouse.total_recorded == 60
        assert warehouse.analytics.traces_observed == 60
        assert len(warehouse) == 0  # rate 0, nothing violates
        assert warehouse.spans_for("svc0") == []

    def test_unsampled_warehouse_stores_everything(self):
        warehouse = TraceWarehouse(analytics=CriticalPathAggregator())
        self.run_chain(warehouse)
        assert len(warehouse) == warehouse.total_recorded == 60
        assert warehouse.analytics.traces_observed == 60

    def test_coverage_merges_sampler_and_analytics(self):
        warehouse = TraceWarehouse(
            sampler=TailSampler(1.0, rng(), slo_threshold=1e9),
            analytics=CriticalPathAggregator())
        self.run_chain(warehouse)
        snap = warehouse.coverage()
        assert snap["sampler"] == "tail"
        assert snap["total_recorded"] == snap["stored"] == 60
        assert snap["analytics_traces_observed"] == 60

    def test_coverage_without_sampler(self):
        warehouse = TraceWarehouse()
        self.run_chain(warehouse, requests=5)
        assert warehouse.coverage() == {
            "total_recorded": 5, "stored": 5, "sampler": "none"}


class TestStreamingVsExhaustive:
    """Streaming P² self-time quantiles track the exhaustive walk."""

    @pytest.fixture(scope="class")
    def populated(self):
        env = Environment()
        streams = RandomStreams(11)
        app = build_chain(env, streams, depth=3, demand_ms=3.0,
                          threads=6)
        app.warehouse = TraceWarehouse(
            analytics=CriticalPathAggregator())
        driver = OpenLoopDriver(env, app, "go", 150.0,
                                streams.stream("openloop"),
                                duration=10.0)
        driver.start()
        env.run(until=15.0)
        return app.warehouse

    def exhaustive(self, warehouse):
        durations = []
        self_times = {}
        for root in warehouse.traces(0.0, float("inf")):
            path = extract_critical_path(root)
            durations.append(path.duration)
            for span in path.spans:
                self_times.setdefault(span.service, []).append(
                    span.self_time())
        return durations, self_times

    def test_self_time_p99_within_five_percent(self, populated):
        _durations, self_times = self.exhaustive(populated)
        analytics = populated.analytics
        checked = 0
        for service, values in self_times.items():
            if len(values) < 100:
                continue
            exact = float(np.percentile(values, 99))
            estimate = analytics.self_time[service].quantile(0.99)
            assert estimate == pytest.approx(exact, rel=0.05), service
            checked += 1
        assert checked >= 3, "chain run produced too few samples"

    def test_duration_p99_within_five_percent(self, populated):
        durations, _self_times = self.exhaustive(populated)
        exact = float(np.percentile(durations, 99))
        assert populated.analytics.duration.quantile(0.99) == \
            pytest.approx(exact, rel=0.05)

    def test_counts_and_paths_match_exhaustive(self, populated):
        durations, self_times = self.exhaustive(populated)
        analytics = populated.analytics
        assert analytics.traces_observed == len(durations)
        for service, values in self_times.items():
            assert analytics.self_time[service].count == len(values)
        # One linear chain: a single dominant critical-path pattern.
        top = analytics.paths.top(1)[0]
        assert top["count"] == len(durations)
        assert top["services"] == ["svc0", "svc1", "svc2"]


class TestFingerprintIdentity:
    """Sampling is an observability concern: simulated outcomes are
    byte-identical with sampling on, off, or observability disabled."""

    def digest(self, mode):
        obs = (obs_mod.NULL if mode == "disabled"
               else obs_mod.Observability(telemetry=False))
        trace = WorkloadTrace("flat", 20.0, 30, 10, lambda u: 1.0)
        scenario = sock_shop_cart_scenario(
            trace=trace, controller="none", autoscaler="none", obs=obs)
        recorder = RunRecorder(scenario.env, keep_events=False)
        if mode in ("head", "tail"):
            cls = HeadSampler if mode == "head" else TailSampler
            scenario.app.warehouse.attach(
                sampler=cls(0.1, sampler_stream(scenario.streams),
                            slo_threshold=scenario.sla),
                analytics=CriticalPathAggregator())
            obs.attach_trace_analytics(scenario.app.warehouse)
        for driver in scenario.drivers:
            driver.start()
        scenario.env.run(until=25.0)
        stored = len(scenario.app.warehouse)
        total = scenario.app.warehouse.total_recorded
        return recorder.finish(scenario.app).digest, stored, total

    def test_sampled_runs_are_byte_identical(self):
        baseline, stored_all, total = self.digest("unsampled")
        assert total > 50 and stored_all == total
        for mode in ("disabled", "head", "tail"):
            digest, stored, mode_total = self.digest(mode)
            assert digest == baseline, mode
            assert mode_total == total, mode
            if mode in ("head", "tail"):
                # The sampler really dropped traces — identity is not
                # vacuous — yet the fingerprint (which folds in
                # total_recorded) never moved.
                assert 0 < stored < total, mode


class TestEvictionConsistency:
    """Per-service indexes track the ring exactly through eviction."""

    def test_indexes_match_ring_after_overflow(self):
        env = Environment()
        streams = RandomStreams(3)
        app = build_chain(env, streams, depth=3, demand_ms=2.0,
                          threads=4)
        app.warehouse = TraceWarehouse(max_traces=16)
        for _ in range(100):
            app.submit("go")
        env.run()

        warehouse = app.warehouse
        assert warehouse.total_recorded == 100
        assert len(warehouse) == 16
        kept = warehouse.traces(0.0, float("inf"))
        kept_spans = {id(span) for root in kept
                      for span in root.walk()}
        for service in warehouse.services():
            indexed = warehouse.spans_for(service)
            # Exactly one span per stored trace in a linear chain, all
            # belonging to live (non-evicted) traces, sorted by
            # departure.
            assert len(indexed) == 16, service
            assert all(id(span) in kept_spans for span in indexed)
            departures = [span.departure for span in indexed]
            assert departures == sorted(departures)

    def test_eviction_composes_with_sampling(self):
        env = Environment()
        streams = RandomStreams(3)
        app = build_chain(env, streams, depth=2, demand_ms=2.0,
                          threads=4)
        app.warehouse = TraceWarehouse(
            max_traces=8,
            sampler=TailSampler(0.5, rng(1), slo_threshold=1e9))
        for _ in range(80):
            app.submit("go")
        env.run()
        warehouse = app.warehouse
        assert warehouse.total_recorded == 80
        assert warehouse.sampler.kept > 8  # eviction actually ran
        assert len(warehouse) == 8
        kept_spans = {id(span)
                      for root in warehouse.traces(0.0, float("inf"))
                      for span in root.walk()}
        for service in warehouse.services():
            assert all(id(span) in kept_spans
                       for span in warehouse.spans_for(service))
