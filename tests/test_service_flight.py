"""Flight recorder: the controllers' self-trace of each round.

Covers the contract end to end: every control round — of the service
plane and of the embedded simulator controller alike — becomes a
complete span tree (ingest → localization → deadline propagation →
SCG estimation → decision), the Jaeger-shaped export round-trips
through :func:`repro.tracing.export.traces_from_jaeger` as a fixed
point, the retention ring is bounded, the exemplar on the
recommendation-latency histogram links ``/metrics`` to
``/debug/rounds/{id}``, and disabling the recorder
(``flight_rounds=0``) leaves the decision JSONL byte-identical — the
recorder observes wall clocks but never touches decision state.
"""

import asyncio
import json

import pytest

from repro.core.scg import ScatterModelConfig
from repro.experiments import run_scenario, sock_shop_cart_scenario
from repro.obs import Observability, parse_openmetrics
from repro.obs.flight import PHASES, SELF_SERVICE
from repro.service import (
    ControlPlane,
    ControllerService,
    FlightRecorder,
    ServiceConfig,
    render_snapshot,
)
from repro.service.console import render_service_dashboard
from repro.tracing.export import export_traces, traces_from_jaeger
from repro.workloads import build_trace


def flight_config(**overrides) -> ServiceConfig:
    defaults = dict(
        decide_top_k=0,
        scatter=ScatterModelConfig(min_samples=8, min_distinct=4,
                                   quantum=1.0))
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def feed_rounds(plane: ControlPlane, rounds: int = 3,
                per_round: int = 6) -> None:
    """Deterministic cart workload: scrapes between explicit ticks."""
    clock = 0.0
    step = 0
    for _round in range(rounds):
        for _scrape in range(per_round):
            clock += 1.0
            step += 1
            q = 1.0 + (step % 10)
            rate = 30.0 * q / (1.0 + q / 8.0)
            plane.ingest_metrics(render_snapshot(
                clock, {"cart": 0.92}, {"cart": q}, {"cart": rate},
                {"cart": 4}))
        plane.tick(now=clock)


@pytest.fixture(scope="module")
def embedded_flight():
    """Recorder of a short Sock Shop run under the embedded Sora."""
    obs = Observability()
    trace = build_trace("steep_tri_phase", duration=90.0,
                        peak_users=450, min_users=80)
    run_scenario(sock_shop_cart_scenario(trace=trace, controller="sora",
                                         obs=obs), duration=90.0)
    return obs.flight


@pytest.fixture(params=["service", "embedded"])
def estimated_round(request):
    """The newest recorded round that ran at least one estimate."""
    if request.param == "service":
        plane = ControlPlane(flight_config())
        feed_rounds(plane, rounds=3)
        flight = plane.flight
    else:
        flight = request.getfixturevalue("embedded_flight")
    for summary in reversed(flight.summaries()):
        payload = flight.round(summary["round"])
        estimation = next(child for child in payload["spans"]["children"]
                          if child["operation"] == "scg_estimation")
        if estimation["children"]:
            return request.param, payload
    raise AssertionError("no round ran an estimate")


# ----------------------------------------------------------------------
# Recorder unit behavior
# ----------------------------------------------------------------------
def test_invalid_capacity_rejected():
    with pytest.raises(ValueError, match="max_rounds"):
        FlightRecorder(max_rounds=-1)


def test_disabled_recorder_is_falsy_and_empty():
    recorder = FlightRecorder(max_rounds=0)
    assert not recorder
    assert len(recorder) == 0
    plane = ControlPlane(flight_config(flight_rounds=0))
    feed_rounds(plane)
    assert not plane.flight
    assert plane.flight.summaries() == []
    assert plane.flight.round(1) is None


def test_ring_retains_only_newest_rounds():
    plane = ControlPlane(flight_config(flight_rounds=2))
    feed_rounds(plane, rounds=5)
    flight = plane.flight
    assert flight.rounds_recorded == 5
    assert len(flight) == 2
    assert [entry["round"] for entry in flight.summaries()] == [4, 5]
    assert flight.round(1) is None
    assert flight.round(5) is not None


# ----------------------------------------------------------------------
# Span-tree completeness
# ----------------------------------------------------------------------
def test_round_span_tree_covers_every_phase(estimated_round):
    kind, payload = estimated_round
    assert set(payload["phase_ms"]) == set(PHASES)
    if kind == "service":
        assert payload["trigger"] == "cadence"
        assert payload["ingest"]["metrics"] == 6
        assert payload["decisions"] == ["cart"]
    else:
        assert payload["trigger"] == "periodic"
        assert payload["decisions"] == ["cart.threads"]

    root = payload["spans"]
    assert root["service"] == SELF_SERVICE
    assert root["operation"] == "round"
    children = [child["operation"] for child in root["children"]]
    # Both controllers trace the same pipeline phases (the service's
    # between-round ingests appear as ``ingest.<kind>``).
    assert {op.partition(".")[0] for op in children} == set(PHASES)
    estimation = next(child for child in root["children"]
                      if child["operation"] == "scg_estimation")
    estimates = [grand["operation"] for grand in estimation["children"]]
    # Both estimate every decided target in one batch.
    assert estimates == ["estimate.batch"]
    # Wall clocks are monotone through the pipeline.
    ordered = [next(child for child in root["children"]
                    if child["operation"] == op)
               for op in ("localization", "deadline_propagation",
                          "scg_estimation", "decision")]
    starts = [span["start_s"] for span in ordered]
    assert starts == sorted(starts)


def test_summaries_omit_span_objects():
    plane = ControlPlane(flight_config())
    feed_rounds(plane, rounds=2)
    summaries = plane.flight.summaries()
    assert len(summaries) == 2
    for entry in summaries:
        assert "root" not in entry and "spans" not in entry
        json.dumps(entry)  # JSON-ready as served by /debug/rounds


def test_service_report_has_phase_timings():
    plane = ControlPlane(flight_config())
    feed_rounds(plane, rounds=1)
    report = plane.report()
    table = report.split("Control-loop phase timings (wall clock)\n",
                         1)[1].split("\n\n", 1)[0]
    rows = {line.split(" | ")[0].strip()
            for line in table.splitlines()[2:]}
    assert set(PHASES) <= rows


# ----------------------------------------------------------------------
# Jaeger round-trip
# ----------------------------------------------------------------------
def test_jaeger_export_round_trips_as_fixed_point(estimated_round):
    _kind, payload = estimated_round
    document = json.dumps(payload["jaeger"], sort_keys=True)
    spans = traces_from_jaeger(document)
    assert len(spans) == 1
    reexported = export_traces(spans)
    assert json.loads(reexported) == payload["jaeger"]
    # And the parse is an exact fixed point of a second round-trip.
    assert export_traces(traces_from_jaeger(reexported)) == reexported


# ----------------------------------------------------------------------
# Replay neutrality + exemplar
# ----------------------------------------------------------------------
def test_disabled_mode_keeps_decisions_byte_identical():
    traced = ControlPlane(flight_config(flight_rounds=16))
    bare = ControlPlane(flight_config(flight_rounds=0))
    feed_rounds(traced, rounds=4)
    feed_rounds(bare, rounds=4)
    assert traced.decisions_jsonl() == bare.decisions_jsonl()
    assert len(traced.flight) == 4
    assert len(bare.flight) == 0


def test_metrics_exemplar_links_to_self_trace_round():
    plane = ControlPlane(flight_config())
    feed_rounds(plane, rounds=3)
    histogram = plane.obs.registry.histogram(
        "service.recommendation.latency")
    exemplar = histogram.exemplar
    assert exemplar is not None
    linked = exemplar.trace_id
    assert 1 <= linked <= 3
    assert plane.flight.round(linked) is not None
    # The exemplar survives into the OpenMetrics exposition and the
    # strict parser reads it back with the same trace id.
    families = parse_openmetrics(plane.openmetrics())
    family = families["repro_service_recommendation_latency"]
    linked_ids = [sample.exemplar.trace_id
                  for sample in family["samples"]
                  if sample.exemplar is not None]
    assert linked in linked_ids


# ----------------------------------------------------------------------
# Console + HTTP surface
# ----------------------------------------------------------------------
def test_console_renders_flight_sections_self_contained():
    plane = ControlPlane(flight_config())
    feed_rounds(plane, rounds=3)
    from repro.service import AuditJournal
    page = render_service_dashboard(plane, AuditJournal())
    assert "Per-phase flame strips" in page
    assert "/debug/rounds/" in page
    assert "Journal health" in page
    assert "http://" not in page and "https://" not in page


def test_debug_rounds_served_over_http(tmp_path):
    async def scenario() -> None:
        service = ControllerService(flight_config(flight_rounds=8),
                                    port=0, cadence=0.0)
        await service.start()
        try:
            port = service.port
            for index in range(10):
                q = 1.0 + (index % 10)
                body = render_snapshot(
                    float(index + 1), {"cart": 0.9}, {"cart": q},
                    {"cart": 30.0 * q / (1.0 + q / 8.0)}, {"cart": 4})
                status, _headers, _text = await _request(
                    port, "POST", "/ingest/openmetrics", body)
                assert status == 202
            status, _headers, _text = await _request(
                port, "POST", "/control/tick")
            assert status == 200

            status, _headers, text = await _request(
                port, "GET", "/debug/rounds")
            assert status == 200
            listing = json.loads(text)
            assert listing["enabled"] is True
            assert listing["recorded"] == 1
            ordinal = listing["rounds"][-1]["round"]

            status, _headers, text = await _request(
                port, "GET", f"/debug/rounds/{ordinal}")
            assert status == 200
            payload = json.loads(text)
            assert set(payload["phase_ms"]) == set(PHASES)
            spans = traces_from_jaeger(
                json.dumps(payload["jaeger"]))
            assert spans and spans[0].operation == "round"

            status, _headers, _text = await _request(
                port, "GET", "/debug/rounds/999")
            assert status == 404

            status, headers, text = await _request(
                port, "GET", "/debug/dashboard")
            assert status == 200
            assert headers["content-type"].startswith("text/html")
            assert "Ingest backpressure" in text

            status, _headers, text = await _request(
                port, "GET", "/debug/journal")
            assert status == 200
            assert "segments" in json.loads(text)
        finally:
            await _request(port, "POST", "/admin/shutdown")
            await asyncio.wait_for(service.serve_until_shutdown(),
                                   10.0)

    asyncio.run(scenario())


async def _request(port: int, method: str, path: str,
                   body: str | None = None
                   ) -> tuple[int, dict, str]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    payload = (body or "").encode("utf-8")
    head = [f"{method} {path} HTTP/1.1", "Host: test",
            "Connection: close"]
    if payload or method == "POST":
        head.append("Content-Type: text/plain")
        head.append(f"Content-Length: {len(payload)}")
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode("ascii")
                 + payload)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head_bytes, _sep, body_bytes = raw.partition(b"\r\n\r\n")
    lines = head_bytes.decode("latin-1").split("\r\n")
    headers = {}
    for line in lines[1:]:
        key, _sep2, value = line.partition(":")
        headers[key.strip().lower()] = value.strip()
    return (int(lines[0].split()[1]), headers,
            body_bytes.decode("utf-8"))
