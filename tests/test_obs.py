"""Unit tests for the ``repro.obs`` observability layer."""

import io
import json
import logging
import math

import numpy as np
import pytest

from repro.obs import (
    NULL,
    ControlRoundRecord,
    DecisionLog,
    DriftRecord,
    FlightRecorder,
    Histogram,
    MetricsRegistry,
    Observability,
    ScaleEventRecord,
    TargetDecision,
    configure_logging,
    quiet,
    record_from_dict,
    render_html,
    render_text,
)
from repro.obs.registry import NULL_COUNTER, NULL_GAUGE, NULL_HISTOGRAM
from repro.sim import Environment


class TestRegistry:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(2.5)
        assert registry.counter("c").value == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError, match=">= 0"):
            MetricsRegistry().counter("c").inc(-1)

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(1.0)
        registry.gauge("g").set(7.0)
        assert registry.gauge("g").value == 7.0

    def test_histogram_running_aggregates_cover_everything(self):
        hist = Histogram("h", capacity=8)
        for value in range(100):
            hist.observe(float(value))
        assert hist.count == 100
        assert hist.min == 0.0
        assert hist.max == 99.0
        assert hist.mean == pytest.approx(49.5)

    def test_histogram_ring_is_bounded_and_recent(self):
        hist = Histogram("h", capacity=8)
        for value in range(100):
            hist.observe(float(value))
        recent = hist.recent()
        assert recent.size == 8
        # Only the last 8 observations are retained.
        assert set(recent.tolist()) == set(float(v) for v in range(92, 100))
        assert hist.percentile(0.0) >= 92.0

    def test_empty_histogram_percentile_is_nan(self):
        assert math.isnan(Histogram("h").percentile(50.0))

    def test_kind_collision_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError, match="already registered"):
            registry.gauge("x")

    def test_disabled_registry_hands_out_null_singletons(self):
        registry = MetricsRegistry(enabled=False)
        assert registry.counter("c") is NULL_COUNTER
        assert registry.gauge("g") is NULL_GAUGE
        assert registry.histogram("h") is NULL_HISTOGRAM
        registry.counter("c").inc()
        registry.histogram("h").observe(1.0)
        assert registry.snapshot() == {}
        assert registry.names() == []

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.histogram("h").observe(2.0)
        snap = registry.snapshot()
        assert snap["c"] == {"type": "counter", "value": 1.0}
        assert snap["h"]["count"] == 1
        assert snap["h"]["p50"] == 2.0


def _decision(**overrides):
    payload = dict(target="cart.threads", trigger="periodic",
                   outcome="applied", reason="knee", before=5, after=8,
                   threshold=0.35, method="knee", knee_concurrency=4.2,
                   knee_rate=120.0, poly_degree=6, samples=480,
                   max_concurrency=9.5, growth_can_help=True,
                   curve=((1.0, 10.0), (2.0, 30.0), (4.0, 55.0)))
    payload.update(overrides)
    return TargetDecision(**payload)


def _round(time=15.0, decisions=()):
    return ControlRoundRecord(
        time=time, controller="scg", trigger="periodic",
        critical_service="cart", dominant_path=("front-end", "cart"),
        correlations={"cart": 0.97, "cart-db": 0.2},
        candidates=("cart",), thresholds={"cart.threads": 0.35},
        decisions=tuple(decisions), traces=1200, wall_ms=12.5)


class TestDecisionLog:
    def test_jsonl_round_trip_is_lossless(self):
        log = DecisionLog()
        log.append(_round(decisions=[_decision()]))
        log.append(ScaleEventRecord(time=30.0, service="cart",
                                    scale_kind="vertical", before=2,
                                    after=3, autoscaler="FirmAutoscaler"))
        log.append(DriftRecord(time=45.0, target="cart.threads"))
        text = log.to_jsonl()
        restored = DecisionLog.from_jsonl(text)
        assert restored.to_jsonl() == text
        assert [r.kind for r in restored] == \
            ["control-round", "scale-event", "drift"]
        assert restored.rounds()[0].decisions[0] == _decision()

    def test_applied_extracts_changes_in_order(self):
        log = DecisionLog()
        log.append(_round(time=15.0, decisions=[
            _decision(outcome="hold", reason="unchanged", after=5)]))
        log.append(_round(time=30.0, decisions=[_decision(after=8)]))
        log.append(_round(time=45.0, decisions=[
            _decision(before=8, after=12, reason="saturation-grow")]))
        applied = log.applied()
        assert [(t, d.after) for t, d in applied] == [(30.0, 8),
                                                      (45.0, 12)]

    def test_bounded_eviction(self):
        log = DecisionLog(max_records=4)
        for index in range(10):
            log.append(DriftRecord(time=float(index), target="t"))
        assert len(log) == 4
        assert log.total_recorded == 10
        assert [r.time for r in log.records()] == [6.0, 7.0, 8.0, 9.0]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown record kind"):
            record_from_dict({"kind": "mystery"})

    def test_write_and_read_file(self, tmp_path):
        log = DecisionLog()
        log.append(_round(decisions=[_decision()]))
        path = tmp_path / "nested" / "decisions.jsonl"
        assert log.write_jsonl(path) == 1
        restored = DecisionLog.read_jsonl(path)
        assert restored.to_jsonl() == log.to_jsonl()
        # Each line is standalone JSON.
        for line in path.read_text().strip().splitlines():
            json.loads(line)


class TestProfiling:
    def test_recorder_phase_aggregates(self):
        recorder = FlightRecorder()
        for _ in range(3):
            with recorder.phase("localization") as timer:
                pass
        for target in ("a", "b"):
            with recorder.phase(f"estimate.{target}"):
                pass
        summary = recorder.phase_summary()
        stats = summary["localization"]
        assert stats["count"] == 3
        assert stats["max_ms"] >= stats["mean_ms"] >= 0.0
        assert stats["total_ms"] >= timer.elapsed * 1e3 - 1e-3
        # Per-target phases aggregate under their family name.
        assert summary["estimate"]["count"] == 2
        assert set(summary) == {"estimate", "localization"}

    def test_failed_phase_is_not_timed(self):
        recorder = FlightRecorder()
        with pytest.raises(ValueError):
            with recorder.phase("ingest.metrics"):
                raise ValueError("rejected")
        assert recorder.phase_summary() == {}
        # A round whose phase raised is abandoned, so the next ingest
        # folds into the next recorded round.
        recorder.begin_round()
        with pytest.raises(ValueError):
            with recorder.phase("localization"):
                raise ValueError("failed round")
        with recorder.phase("ingest.metrics"):
            pass
        recorder.begin_round()
        recorder.record_round(round_index=1, time=0.0, trigger="cadence",
                              critical_service=None, decisions=[])
        assert recorder.summaries()[0]["ingest"]["metrics"] == 1

    def test_profilers_never_touch_simulated_time(self):
        # Two identical runs, one self-tracing a round per tick, must
        # produce the same event stream (the fingerprint the replay
        # checker hashes).
        def run(recorder):
            env = Environment()
            seen = []
            env.add_monitor(
                lambda when, eid, _e: seen.append((when, eid)))

            def ticker():
                for index in range(20):
                    yield env.timeout(0.5)
                    recorder.begin_round()
                    with recorder.phase("scg_estimation"):
                        pass
                    if recorder:
                        recorder.record_round(
                            round_index=index + 1, time=env.now,
                            trigger="periodic", critical_service=None,
                            decisions=[])

            env.process(ticker())
            with recorder.phase("run"):
                env.run()
            return seen

        traced = FlightRecorder()
        assert run(FlightRecorder(0)) == run(traced)
        assert traced.rounds_recorded == 20


class TestObservabilityFacade:
    def test_null_is_falsy_and_inert(self):
        assert not NULL
        NULL.record(DriftRecord(time=1.0, target="t"))
        with NULL.phase("anything"):
            pass
        assert len(NULL.decisions) == 0
        assert NULL.flight.phase_summary() == {}
        assert not NULL.flight
        assert NULL.registry.snapshot() == {}

    def test_enabled_records_and_times(self):
        obs = Observability()
        assert obs
        obs.record(DriftRecord(time=1.0, target="t"))
        with obs.phase("adapt"):
            pass
        obs.registry.counter("controller.rounds").inc()
        assert len(obs.decisions) == 1
        summary = obs.summary()
        assert summary["phases"]["adapt"]["count"] == 1
        assert summary["metrics"]["controller.rounds"]["value"] == 1.0


class TestLogging:
    def teardown_method(self):
        quiet()

    def test_configure_streams_namespaced_records(self):
        stream = io.StringIO()
        configure_logging("info", stream=stream)
        logging.getLogger("repro.core.sora").info("round complete")
        assert "repro.core.sora: round complete" in stream.getvalue()

    def test_configure_is_idempotent(self):
        first = io.StringIO()
        second = io.StringIO()
        configure_logging("info", stream=first)
        configure_logging("info", stream=second)
        logging.getLogger("repro.obs").info("hello")
        assert first.getvalue() == ""
        assert "hello" in second.getvalue()
        root = logging.getLogger("repro")
        stream_handlers = [h for h in root.handlers
                           if isinstance(h, logging.StreamHandler)]
        assert len(stream_handlers) == 1

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="unknown log level"):
            configure_logging("loud")

    def test_quiet_by_default(self):
        # The library installs only a NullHandler: no output and no
        # "no handler" warnings without explicit configuration.
        quiet()
        root = logging.getLogger("repro")
        assert any(isinstance(h, logging.NullHandler)
                   for h in root.handlers)


class TestReport:
    def _obs_with_history(self):
        obs = Observability()
        obs.record(_round(time=15.0, decisions=[
            _decision(outcome="hold", reason="no-estimate",
                      after=5, method=None, curve=None)]))
        obs.record(_round(time=30.0, decisions=[_decision()]))
        obs.record(ScaleEventRecord(time=40.0, service="cart",
                                    scale_kind="vertical", before=2,
                                    after=3, autoscaler="FirmAutoscaler"))
        obs.record(DriftRecord(time=50.0, target="cart.threads"))
        obs.registry.counter("controller.rounds").inc(2)
        obs.registry.histogram("controller.allocation").observe(8.0)
        with obs.phase("localize"):
            pass
        return obs

    def test_text_report_explains_decisions(self):
        report = render_text(self._obs_with_history(), title="unit run")
        assert "unit run" in report
        assert "cart.threads" in report
        assert "5 -> 8" in report
        assert "knee" in report
        assert "no-estimate" in report
        assert "FirmAutoscaler" in report
        assert "Drift" in report
        assert "localize" in report
        assert "controller.rounds" in report

    def test_text_report_on_empty_log(self):
        report = render_text(Observability(), title="empty")
        assert "0 records total" in report
        assert "no adaptations were applied" in report.lower()

    def test_html_report_is_selfcontained(self):
        html = render_html(self._obs_with_history(), title="unit run")
        assert html.startswith("<!DOCTYPE html>")
        assert "unit run" in html
        assert "cart.threads" in html
        assert "<svg" in html  # knee curve snapshot
        assert "http" not in html.split("</style>")[1]  # no external deps

    def test_html_escapes_content(self):
        obs = Observability()
        obs.record(_round(decisions=[
            _decision(target="a<b>&c", curve=None)]))
        html = render_html(obs, title="<script>alert(1)</script>")
        assert "<script>alert(1)" not in html
        assert "a<b>&c" not in html


class TestDecisionCurves:
    def test_curve_survives_round_trip_with_rounding(self):
        decision = _decision(
            curve=tuple((float(q), float(q) * 10.0)
                        for q in np.linspace(0, 8, 16)))
        restored = TargetDecision.from_dict(
            json.loads(json.dumps(decision.to_dict())))
        assert len(restored.curve) == 16
        assert restored.curve[3][1] == pytest.approx(
            decision.curve[3][1])
