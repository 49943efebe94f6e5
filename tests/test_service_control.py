"""Control-plane service: domain, adapters, pipeline, audit replay.

Covers the transport-free layers of ``repro.service``: the strict
ingest taxonomy (reusing the OpenMetrics parser's error messages), the
online localization → propagation → SCG pipeline over streaming state,
back-pressure when ingestion outpaces the control cadence, and the
byte-identity of audit-log replay.
"""

import json
import typing as _t

import numpy as np
import pytest

from repro.core import scg
from repro.core.scg import ScatterModelConfig
from repro.service import (
    AuditJournal,
    ControlPlane,
    IngestError,
    ServiceConfig,
    parse_metrics_snapshot,
    parse_trace_batch,
    read_journal,
    render_snapshot,
    replay_journal,
    verify_replay,
)
from repro.service.control import MAX_ALLOCATION
from repro.tracing.export import export_traces
from repro.tracing.span import Span


def small_config(**overrides) -> ServiceConfig:
    """A config whose scatter model converges on few snapshots."""
    defaults = dict(
        exclude=("front-end",),
        scatter=ScatterModelConfig(min_samples=20, min_distinct=4,
                                   quantum=1.0))
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def synthetic_trace(index: int, arrival: float,
                    cart_self: float = 0.2) -> Span:
    """front-end -> cart trace with cart dominating the self time."""
    root = Span(trace_id=index + 1, service="front-end",
                operation="request", arrival=arrival)
    root.started = arrival
    child = Span(trace_id=index + 1, service="cart",
                 operation="cart", arrival=arrival + 0.01, parent=root)
    child.started = child.arrival + 0.002
    child.departure = child.arrival + cart_self + 0.01 * (index % 5)
    root.departure = child.departure + 0.01
    return root


def knee_snapshots(plane: ControlPlane, count: int = 40,
                   knee: float = 10.0) -> None:
    """Feed snapshots tracing a saturating goodput curve for cart, from
    a 20-token pool that concurrency never pins."""
    rng = np.random.default_rng(11)
    for index in range(count):
        q = 1.0 + (index % 20)
        rate = max(0.0, 30.0 * q / (1.0 + q / knee)
                   + rng.normal(0.0, 1.5))
        plane.ingest_metrics(render_snapshot(
            float(index + 1), {"cart": 0.92, "front-end": 0.30},
            {"cart": q}, {"cart": rate}, {"cart": 20}))
        if plane.pending >= plane.config.max_pending:
            plane.tick()


# ----------------------------------------------------------------------
# Domain validation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("overrides", [
    {"sla": 0.0},
    {"cadence": -1.0},
    {"window": 0.0},
    {"trace_window": 0},
    {"max_pending": 0},
    {"decide_top_k": -1},
    {"min_allocation": 9, "max_allocation": 3},
    {"latency_slo": 0.0},
    {"floor_fraction": -0.1},
    {"floor_fraction": 1.0},
])
def test_config_rejects_bad_values(overrides):
    with pytest.raises(ValueError):
        ServiceConfig(**overrides)


def test_config_round_trips_to_json():
    config = small_config()
    payload = json.loads(json.dumps(config.to_dict()))
    assert payload["sla"] == config.sla
    assert payload["families"]["concurrency"] == "sora_concurrency"
    assert payload["scatter"]["min_samples"] == 20


# ----------------------------------------------------------------------
# Ingest adapters: strict taxonomy
# ----------------------------------------------------------------------
def test_snapshot_round_trips_through_strict_parser():
    config = small_config()
    text = render_snapshot(12.5, {"cart": 0.9, "front-end": 0.2},
                           {"cart": 3.5}, {"cart": 120.0},
                           {"cart": 5})
    snapshot = parse_metrics_snapshot(text, config)
    assert snapshot.time == 12.5
    assert snapshot.series["cart"].concurrency == 3.5
    assert snapshot.series["cart"].rate == 120.0
    assert snapshot.series["cart"].allocation == 5
    # front-end is utilization-only: screened, never estimated.
    assert np.isnan(snapshot.series["front-end"].concurrency)


@pytest.mark.parametrize("text,code,fragment", [
    ("sora_concurrency 1\n# EOF\n", "bad-openmetrics",
     "without # TYPE"),
    ("# TYPE sora_concurrency gauge\nsora_concurrency{broken 1\n# EOF\n",
     "bad-openmetrics", "bad sample"),
    ("# TYPE sora_concurrency gauge\nsora_concurrency 1\n",
     "bad-openmetrics", "missing # EOF terminator"),
    ("# EOF\nmore\n", "bad-openmetrics", "content after # EOF"),
    ("# TYPE other gauge\nother 1\n# EOF\n", "missing-family",
     "sora_concurrency"),
    ('# TYPE sora_concurrency gauge\nsora_concurrency{pod="x"} 1\n'
     "# EOF\n", "missing-label", "'service'"),
])
def test_snapshot_rejection_taxonomy(text, code, fragment):
    with pytest.raises(IngestError) as excinfo:
        parse_metrics_snapshot(text, small_config())
    assert excinfo.value.code == code
    assert fragment in excinfo.value.detail
    assert excinfo.value.to_dict()["error"] == code


@pytest.mark.parametrize("body,code", [
    ("{not json", "bad-json"),
    ("[1, 2, 3]", "bad-jaeger"),
    ('{"nope": []}', "bad-jaeger"),
])
def test_trace_batch_rejection_taxonomy(body, code):
    with pytest.raises(IngestError) as excinfo:
        parse_trace_batch(body)
    assert excinfo.value.code == code


def test_trace_batch_without_root_span_is_rejected():
    document = json.loads(export_traces([synthetic_trace(0, 1.0)]))
    for span in document["data"][0]["spans"]:
        span["references"] = [{"refType": "CHILD_OF",
                               "traceID": span["traceID"],
                               "spanID": span["spanID"]}]
    with pytest.raises(IngestError) as excinfo:
        parse_trace_batch(json.dumps(document))
    assert excinfo.value.code == "bad-jaeger"
    assert "no root span" in excinfo.value.detail


@pytest.mark.parametrize("field,value", [
    ("duration", -5000), ("duration", float("inf")),
    ("startTime", float("nan")), ("startTime", float("inf")),
])
def test_span_times_outside_the_sketch_domain_are_rejected(field, value):
    # Critical-path durations feed quantile sketches, which take only
    # finite, non-negative values: the batch is rejected before any
    # trace reaches the plane.
    document = json.loads(export_traces([synthetic_trace(0, 1.0),
                                         synthetic_trace(1, 2.0)]))
    document["data"][1]["spans"][-1][field] = value
    plane = ControlPlane(small_config())
    with pytest.raises(IngestError) as excinfo:
        plane.ingest_traces(json.dumps(document))
    assert excinfo.value.code == "bad-jaeger"
    assert plane.traces_ingested == plane.analytics.traces_observed == 0


def test_trace_batch_round_trip():
    roots = [synthetic_trace(i, 0.5 * i) for i in range(6)]
    parsed = parse_trace_batch(export_traces(roots))
    assert [r.trace_id for r in parsed] == [r.trace_id for r in roots]
    assert export_traces(parsed) == export_traces(roots)


# ----------------------------------------------------------------------
# Pipeline: localization -> propagation -> estimation
# ----------------------------------------------------------------------
def test_round_produces_scg_recommendation():
    plane = ControlPlane(small_config())
    knee_snapshots(plane)
    plane.ingest_traces(export_traces(
        [synthetic_trace(i, 0.5 * i) for i in range(30)]))
    record = plane.tick()
    assert record.critical_service == "cart"
    assert record.controller == "service"
    assert record.wall_ms is None  # wall clocks never enter the log
    rec = plane.recommendations["cart"]
    assert rec.method in ("knee", "argmax")
    assert 1 <= rec.allocation <= plane.config.max_allocation
    # Upstream front-end self time shrinks cart's propagated budget.
    assert rec.threshold < plane.config.sla
    assert rec.threshold >= (plane.config.sla
                             * plane.config.floor_fraction)
    status = plane.status()
    assert status["recommendations"] == 1
    assert status["recommendation_latency"]["count"] >= 1
    assert status["decisions_per_sec"] is None or \
        status["decisions_per_sec"] > 0
    assert status["slo"]["observed"] >= 1


def test_every_decision_feeds_one_latency_observation():
    # The batch wall is shared out over the round's decisions, so the
    # latency telemetry still counts one observation per decision.
    plane = ControlPlane(small_config(decide_top_k=0))
    rng = np.random.default_rng(5)
    services = ("cart", "orders", "payment")
    for index in range(60):
        q = 1.0 + (index % 20)
        plane.ingest_metrics(render_snapshot(
            float(index + 1), dict.fromkeys(services, 0.9),
            dict.fromkeys(services, q),
            {name: 30.0 * q / (1.0 + q / knee) + rng.normal(0.0, 1.5)
             for name, knee in zip(services, (6.0, 10.0, 14.0))}))
        if index % 20 == 19:
            plane.tick()
    plane.tick(now=plane.now)
    assert plane.decisions_made == 4 * len(services)
    status = plane.status()
    assert status["recommendation_latency"]["count"] == \
        plane.decisions_made
    assert status["slo"]["observed"] == plane.decisions_made
    histogram = plane.obs.registry.histogram(
        "service.recommendation.latency")
    assert histogram is plane.latency
    assert histogram.count == plane.decisions_made


def test_estimate_workers_gauge_reports_the_round_parallelism(
        monkeypatch):
    def run_rounds(plane):
        rng = np.random.default_rng(5)
        services = ("cart", "orders", "payment")
        for index in range(40):
            q = 1.0 + (index % 20)
            plane.ingest_metrics(render_snapshot(
                float(index + 1), dict.fromkeys(services, 0.9),
                dict.fromkeys(services, q),
                {name: 30.0 * q / (1.0 + q / 8.0) + rng.normal(0.0, 1.5)
                 for name in services},
                # Unpinned pools, so that every series is estimated.
                dict.fromkeys(services, 20)))
        plane.tick()
        return plane.decisions_jsonl()

    serial = ControlPlane(small_config(decide_top_k=0))
    decisions = run_rounds(serial)
    assert "repro_service_estimate_workers 1" in serial.openmetrics()
    # Three windows cut into blocks of one: the same decisions.
    monkeypatch.setattr(scg, "MIN_BLOCK_ROWS", 1)
    monkeypatch.setattr(scg, "_worker_count", lambda: 2)
    blocked = ControlPlane(small_config(decide_top_k=0))
    assert run_rounds(blocked) == decisions
    assert "repro_service_estimate_workers 2" in blocked.openmetrics()


def linear(q):
    """A goodput curve still rising at the top of the observed range."""
    return 10.0 * q


def peak_at(level):
    """A goodput curve that peaks at concurrency ``level``, then falls
    as latency outgrows the threshold."""
    def curve(q):
        return 30.0 * q * np.exp(-q / level)
    return curve


def decide_cart(allocation: int, curve, cart_self: float | None = None):
    """One round over 40 scrapes of cart cycling through concurrency
    1..20 from a pool of ``allocation`` tokens, after 30 traces whose
    cart spans take about ``cart_self`` seconds (none when ``None``)."""
    plane = ControlPlane(small_config(decide_top_k=0))
    if cart_self is not None:
        plane.ingest_traces(export_traces(
            [synthetic_trace(i, 0.5 * i, cart_self) for i in range(30)]))
    for index in range(40):
        q = 1.0 + index % 20
        plane.ingest_metrics(render_snapshot(
            float(index + 1), {"cart": 0.9}, {"cart": q},
            {"cart": curve(q)}, {"cart": allocation}))
    (decision,) = plane.tick().decisions
    assert plane.recommendations["cart"].allocation == decision.after
    assert plane.recommendations["cart"].before == allocation
    return decision


@pytest.mark.parametrize("allocation,curve,cart_self,reason,after", [
    # Pinned pool, healthy processing: explore upward by 1.5x.
    (4, linear, 0.2, "saturation-grow", 6),
    # Pinned pool, processing past the threshold: shed to a quarter.
    (8, linear, 0.5, "overload-shed", 2),
    # Pinned pool, no processing evidence: growth cannot help.
    (8, linear, None, "overload-shed", 2),
    # Argmax at the top of a pressed range: censored, so explore ...
    (20, linear, 0.2, "edge-grow", 30),
    # ... unless processing already misses the threshold.
    (20, linear, 0.5, "edge-shrink", 5),
    # Demand never filled the pool: the edge proves nothing.
    (40, linear, None, "edge-unpressed-hold", 40),
    # A knee far below a pool that never came near full: hold.
    (100, peak_at(5.0), None, "idle-hold", 100),
], ids=["saturation-grow", "overload-shed", "overload-shed-no-spans",
        "edge-grow", "edge-shrink", "edge-unpressed-hold", "idle-hold"])
def test_round_applies_the_embedded_rules(allocation, curve, cart_self,
                                          reason, after):
    decision = decide_cart(allocation, curve, cart_self)
    assert (decision.reason, decision.after) == (reason, after)
    assert decision.outcome == ("hold" if after == allocation
                                else "applied")


def test_one_round_shrinks_at_most_to_a_quarter():
    decision = decide_cart(32, peak_at(4.0))
    assert decision.reason in ("knee", "argmax")
    assert decision.knee_concurrency is None or \
        decision.knee_concurrency < 8
    assert decision.after == 8


def test_utilization_only_series_are_screened_not_estimated():
    plane = ControlPlane(small_config())
    knee_snapshots(plane)
    # cart-db appears with utilization only (no pair telemetry): it
    # may win the correlation ranking but must never be "decided".
    roots = []
    for index in range(20):
        root = synthetic_trace(index, 0.7 * index)
        cart = root.children[0]
        db = Span(trace_id=root.trace_id, service="cart-db",
                  operation="query",
                  arrival=_t.cast(float, cart.started) + 0.001,
                  parent=cart)
        db.started = db.arrival
        db.departure = db.arrival + 0.12 + 0.01 * (index % 5)
        roots.append(root)
    plane.ingest_traces(export_traces(roots))
    plane.ingest_metrics(render_snapshot(
        1000.0, {"cart-db": 0.99, "cart": 0.9}, {"cart": 5.0},
        {"cart": 80.0}))
    record = plane.tick()
    decided = {decision.target for decision in record.decisions}
    assert "cart-db" not in decided
    assert decided <= {"cart"}


def test_no_signal_round_holds_without_decisions():
    plane = ControlPlane(small_config())
    record = plane.tick(now=5.0)
    assert record.decisions == ()
    assert record.critical_service is None
    assert plane.recommendations == {}


def test_rounds_advance_logical_clock_monotonically():
    plane = ControlPlane(small_config())
    plane.ingest_metrics(render_snapshot(
        10.0, {"cart": 0.5}, {"cart": 1.0}, {"cart": 5.0}))
    assert plane.now == 10.0
    plane.tick(now=4.0)  # stale tick cannot rewind the clock
    assert plane.now == 10.0


# ----------------------------------------------------------------------
# Back-pressure
# ----------------------------------------------------------------------
def test_backpressure_when_ingestion_outpaces_cadence():
    plane = ControlPlane(small_config(max_pending=3))
    snapshot = render_snapshot(1.0, {"cart": 0.5}, {"cart": 1.0},
                               {"cart": 5.0})
    for _ in range(3):
        plane.ingest_metrics(snapshot)
    with pytest.raises(IngestError) as excinfo:
        plane.ingest_metrics(snapshot)
    assert excinfo.value.code == "backpressure"
    # A control round drains the queue and re-opens ingestion.
    plane.tick()
    assert plane.pending == 0
    plane.ingest_metrics(snapshot)
    assert plane.pending == 1


def test_series_limit_is_enforced():
    plane = ControlPlane(small_config(max_series=2))
    plane.ingest_metrics(render_snapshot(
        1.0, {}, {"a": 1.0, "b": 1.0}, {"a": 5.0, "b": 5.0}))
    with pytest.raises(IngestError) as excinfo:
        plane.ingest_metrics(render_snapshot(
            2.0, {}, {"c": 1.0}, {"c": 5.0}))
    assert excinfo.value.code == "series-limit"


def test_stale_snapshot_is_rejected_before_any_mutation():
    plane = ControlPlane(small_config())
    plane.ingest_metrics(render_snapshot(
        10.0, {"cart": 0.9}, {"cart": 3.0}, {"cart": 20.0}))
    pending = plane.pending
    # "aaa" sorts before "cart": under a partial apply it would have
    # been tracked before the time regression on cart blew up.
    with pytest.raises(IngestError) as excinfo:
        plane.ingest_metrics(render_snapshot(
            5.0, {}, {"aaa": 1.0, "cart": 4.0},
            {"aaa": 2.0, "cart": 21.0}))
    assert excinfo.value.code == "stale-snapshot"
    assert "cart" in excinfo.value.detail
    # Nothing mutated: no new series, no queued snapshot, no samples.
    assert "aaa" not in plane.checkpoint()["series"]
    assert plane.pending == pending
    assert plane.checkpoint()["series"]["cart"]["snapshots"] == 1
    assert plane.now == 10.0
    # Ingestion at a non-regressing time still works afterwards.
    plane.ingest_metrics(render_snapshot(
        10.0, {}, {"cart": 5.0}, {"cart": 22.0}))
    assert plane.checkpoint()["series"]["cart"]["snapshots"] == 2


def test_nan_inf_or_huge_allocation_is_rejected_before_any_mutation():
    plane = ControlPlane(small_config())
    # 1e41 is finite but overflows the decision core's int64 columns.
    for value in ("NaN", "+Inf", "1e41"):
        text = render_snapshot(1.0, {"cart": 0.9}, {"cart": 3.0},
                               {"cart": 20.0}, {"cart": 5}).replace(
            'sora_allocation{service="cart"} 5',
            f'sora_allocation{{service="cart"}} {value}')
        with pytest.raises(IngestError) as excinfo:
            plane.ingest_metrics(text)
        assert excinfo.value.code == "bad-openmetrics"
        assert "sora_allocation" in excinfo.value.detail
        assert plane.checkpoint()["series"] == {}
        assert plane.pending == 0
    # Only the allocation of a service with a pair is read, so a NaN
    # beside a utilization-only reading is accepted and ignored.
    plane.ingest_metrics(render_snapshot(
        1.0, {"front-end": 0.3}, {"cart": 3.0}, {"cart": 20.0},
        {"front-end": float("nan")}))
    assert plane.checkpoint()["series"]["front-end"]["allocation"] is None


@pytest.mark.parametrize("family", ["sora_concurrency", "sora_goodput"])
@pytest.mark.parametrize("value", ["NaN", "+Inf", "-Inf", "-3"])
def test_bad_pair_reading_is_rejected_before_any_mutation(family, value):
    plane = ControlPlane(small_config(decide_top_k=0))
    plane.ingest_metrics(render_snapshot(
        1.0, {"cart": 0.9}, {"cart": 3.0}, {"cart": 20.0}))
    before = plane.checkpoint()
    text = render_snapshot(2.0, {"cart": 0.9, "front-end": 0.3},
                           {"aaa": 1.0, "cart": 3.0},
                           {"aaa": 2.0, "cart": 20.0}).replace(
        f'{family}{{service="cart"}} {"3" if "conc" in family else "20"}',
        f'{family}{{service="cart"}} {value}')
    assert value in text
    with pytest.raises(IngestError) as excinfo:
        plane.ingest_metrics(text)
    assert excinfo.value.code == "bad-openmetrics"
    assert "cart" in excinfo.value.detail
    assert plane.checkpoint() == before
    assert plane.pending == 1
    # The next round still decides.
    assert plane.tick().decisions


def test_absurd_finite_pair_reading_is_rejected_and_named():
    """A concurrency or goodput above MAX_ALLOCATION is finite but no
    measurement: it rejects the snapshot, naming every such service,
    while a reading of exactly MAX_ALLOCATION is accepted."""
    plane = ControlPlane(small_config(decide_top_k=0))
    text = render_snapshot(1.0, {"cart": 0.9}, {"aaa": 1e300, "cart": 3.0,
                                                "zed": 4.0},
                           {"aaa": 2.0, "cart": 20.0, "zed": 1e16})
    with pytest.raises(IngestError) as excinfo:
        plane.ingest_metrics(text)
    assert excinfo.value.code == "bad-openmetrics"
    assert excinfo.value.detail.endswith("invalid for: aaa, zed")
    assert f"at most {MAX_ALLOCATION}" in excinfo.value.detail
    assert plane.checkpoint()["series"] == {}
    assert plane.pending == 0
    text = render_snapshot(1.0, {}, {"cart": 3.0}, {"cart": 20.0})
    for old in ('sora_concurrency{service="cart"} 3',
                'sora_goodput{service="cart"} 20'):
        assert old in text
        text = text.replace(old, f"{old.split()[0]} {MAX_ALLOCATION}")
    plane.ingest_metrics(text)
    series = plane.checkpoint()["series"]["cart"]
    assert series["concurrency"]["values"] == [float(MAX_ALLOCATION)]
    assert series["rate"]["values"] == [float(MAX_ALLOCATION)]


def test_stale_utilization_only_snapshot_still_enriches():
    # Utilization-only readings append no time-series samples, so a
    # regressing clock must not reject them.
    plane = ControlPlane(small_config())
    plane.ingest_metrics(render_snapshot(
        10.0, {"cart": 0.5}, {"cart": 3.0}, {"cart": 20.0}))
    plane.ingest_metrics(render_snapshot(
        5.0, {"cart": 0.8, "cart-db": 0.99}, {"other": 1.0},
        {"other": 2.0}))
    cart = plane.checkpoint()["series"]["cart"]
    assert cart["utilization"] == 0.8
    assert cart["snapshots"] == 1


# ----------------------------------------------------------------------
# Audit replay byte-identity
# ----------------------------------------------------------------------
def drive_with_journal(journal: AuditJournal,
                       config: ServiceConfig) -> ControlPlane:
    """A small live session, journaling every accepted stimulus."""
    plane = ControlPlane(config)
    rng = np.random.default_rng(3)
    for index in range(30):
        q = 1.0 + (index % 15)
        rate = max(0.0, 25.0 * q / (1.0 + q / 8.0)
                   + rng.normal(0.0, 1.0))
        body = render_snapshot(float(index + 1), {"cart": 0.9},
                               {"cart": q}, {"cart": rate},
                               {"cart": 4})
        plane.ingest_metrics(body)
        journal.record("metrics", plane.now, body)
        if index % 9 == 8:
            batch = export_traces(
                [synthetic_trace(index * 10 + j, index + 0.1 * j)
                 for j in range(5)])
            plane.ingest_traces(batch)
            journal.record("traces", plane.now, batch)
        if index % 10 == 9:
            record = plane.tick(now=plane.now + config.cadence)
            journal.record("tick", record.time)
    return plane


def test_audit_replay_is_byte_identical(tmp_path):
    config = small_config()
    journal_path = tmp_path / "journal.jsonl"
    decisions_path = tmp_path / "decisions.jsonl"
    journal = AuditJournal(journal_path)
    plane = drive_with_journal(journal, config)
    journal.close()
    decisions_path.write_text(plane.decisions_jsonl(),
                              encoding="utf-8")
    assert plane.rounds == 3 and plane.decisions_made >= 1

    entries = read_journal(journal_path)
    assert len(entries) == len(journal)
    replayed = replay_journal(entries, config)
    assert replayed.decisions_jsonl() == plane.decisions_jsonl()

    identical, detail = verify_replay(journal_path, decisions_path,
                                      config)
    assert identical, detail
    assert "byte-identical" in detail


def test_an_overflowing_series_leaves_the_others_decided(tmp_path):
    # "bad" reports cart's curve at 4e14 times the concurrency (up to
    # 8e15, just inside MAX_ALLOCATION, so ingest accepts it). The round
    # still decides every series, and cart gets the recommendation a
    # plane without "bad" gives it. At 1e39 times, ingest rejects it.
    config = small_config(decide_top_k=0)
    journal_path = tmp_path / "journal.jsonl"
    journal = AuditJournal(journal_path)
    plane, clean = ControlPlane(config), ControlPlane(config)
    with pytest.raises(IngestError, match="invalid for: bad$"):
        plane.ingest_metrics(render_snapshot(
            1.0, {"cart": 0.92, "bad": 0.92}, {"cart": 1.0, "bad": 1e39},
            {"cart": 2.0, "bad": 2.0}, {"cart": 20, "bad": 20}))
    rng = np.random.default_rng(11)
    for index in range(40):
        q = 1.0 + (index % 20)
        rate = max(0.0, 30.0 * q / (1.0 + q / 10.0)
                   + rng.normal(0.0, 1.5))
        body = render_snapshot(
            float(index + 1), {"cart": 0.92, "bad": 0.92},
            {"cart": q, "bad": q * 4e14}, {"cart": rate, "bad": rate},
            {"cart": 20, "bad": 20})
        plane.ingest_metrics(body)
        journal.record("metrics", plane.now, body)
        clean.ingest_metrics(render_snapshot(
            float(index + 1), {"cart": 0.92}, {"cart": q},
            {"cart": rate}, {"cart": 20}))
        if plane.pending >= config.max_pending:
            record = plane.tick()
            journal.record("tick", record.time)
            clean.tick()
    record = plane.tick()
    journal.record("tick", record.time)
    clean.tick()
    journal.close()
    assert {decision.target for decision in record.decisions} == {
        "bad", "cart"}
    assert plane.recommendations["bad"].method == "overload-shed"
    assert plane.recommendations["cart"] == clean.recommendations["cart"]
    assert plane.recommendations["cart"].method in ("knee", "argmax")
    replayed = replay_journal(read_journal(journal_path), config)
    assert replayed.decisions_jsonl() == plane.decisions_jsonl()


def test_replay_detects_tampered_decisions(tmp_path):
    config = small_config()
    journal_path = tmp_path / "journal.jsonl"
    decisions_path = tmp_path / "decisions.jsonl"
    journal = AuditJournal(journal_path)
    plane = drive_with_journal(journal, config)
    journal.close()
    tampered = plane.decisions_jsonl().replace(
        '"controller": "service"', '"controller": "rogue"', 1)
    decisions_path.write_text(tampered, encoding="utf-8")
    identical, detail = verify_replay(journal_path, decisions_path,
                                      config)
    assert not identical
    assert "divergence" in detail or "length mismatch" in detail


def test_journal_rejects_unknown_entry_kind(tmp_path):
    path = tmp_path / "journal.jsonl"
    path.write_text(json.dumps({"kind": "mystery", "time": 1.0}) + "\n",
                    encoding="utf-8")
    with pytest.raises(ValueError, match="unknown journal entry"):
        read_journal(path)
