"""Controller-on-controller SLOs for the standalone service layer.

The tentpole service promises its *own* latency objectives: the wall
time of one recommendation (its amortized share of the round's one
batched SCG estimation: batch wall divided by the round's decisions)
and sustained decisions/sec while tracking thousands of concurrent
series. This bench stresses a
transport-free :class:`repro.service.ControlPlane` in estimate-all
mode (``decide_top_k=0``):

- ingest OpenMetrics snapshots carrying a saturating ``<Q, GP>``
  curve for every series (each with its own knee),
- ingest Jaeger-shaped trace batches so localization and deadline
  propagation run on real aggregates,
- run control rounds that estimate **every** series, and read the
  service's self-telemetry back: recommendation latency P50/P99 from
  its P² sketch and decisions/sec, the same numbers it exports over
  ``/metrics``.

Full scale tracks 1000 series; ``REPRO_BENCH_SCALE`` shrinks the
fleet for smoke runs. Assertions are generous ceilings (they guard
against pathological regressions, not noisy-neighbor jitter): P99
recommendation latency under the 250 ms per-recommendation SLO and
at least 20 decisions/sec.
"""

import time

import numpy as np

from benchmarks._common import SCALE, once, publish, publish_json
from repro.core.scg import ScatterModelConfig
from repro.experiments.reporting import ascii_table
from repro.service import ControlPlane, ServiceConfig, render_snapshot
from repro.tracing.export import export_traces
from repro.tracing.span import Span

#: Concurrent series at full scale (the acceptance floor).
FULL_SERIES = 1000
SERIES = max(32, int(round(FULL_SERIES * min(1.0, SCALE))))
SNAPSHOTS = 40
ROUNDS = 3
TRACED_SERVICES = 64
TRACES = 256


def service_names():
    return [f"svc-{index:04d}" for index in range(SERIES)]


def synthetic_snapshot(step, names, rng):
    """One scrape: every series on its own saturating goodput curve."""
    concurrency = {}
    goodput = {}
    utilization = {}
    for index, name in enumerate(names):
        knee = 4.0 + (index % 13)
        q = 1.0 + ((step + index) % 20)
        concurrency[name] = q
        goodput[name] = max(0.0, 25.0 * q / (1.0 + q / knee)
                            + rng.normal(0.0, 1.0))
        utilization[name] = 0.75 + 0.2 * ((index % 10) / 10.0)
    return render_snapshot(float(step + 1), utilization, concurrency,
                           goodput)


def synthetic_traces(names):
    """front-end -> svc trace batches across the traced subset."""
    roots = []
    for index in range(TRACES):
        name = names[index % min(TRACED_SERVICES, len(names))]
        arrival = 0.05 * index
        root = Span(trace_id=index + 1, service="front-end",
                    operation="request", arrival=arrival)
        root.started = arrival
        child = Span(trace_id=index + 1, service=name,
                     operation="work", arrival=arrival + 0.005,
                     parent=root)
        child.started = child.arrival + 0.001
        child.departure = child.arrival + 0.15 + 0.01 * (index % 7)
        root.departure = child.departure + 0.005
        roots.append(root)
    return export_traces(roots)


def run_bench():
    config = ServiceConfig(
        decide_top_k=0,  # estimate-all: the stress mode
        max_series=max(4096, SERIES),
        max_pending=SNAPSHOTS + 1,
        exclude=("front-end",),
        scatter=ScatterModelConfig(min_samples=30, min_distinct=5,
                                   quantum=1.0))
    plane = ControlPlane(config)
    names = service_names()
    rng = np.random.default_rng(17)

    ingest_start = time.perf_counter()
    for step in range(SNAPSHOTS):
        plane.ingest_metrics(synthetic_snapshot(step, names, rng))
        if plane.pending >= config.max_pending - 1:
            plane.tick()
    plane.ingest_traces(synthetic_traces(names))
    ingest_wall = time.perf_counter() - ingest_start

    round_walls = []
    for _round in range(ROUNDS):
        start = time.perf_counter()
        plane.tick()
        round_walls.append(time.perf_counter() - start)

    status = plane.status()
    latency = status["recommendation_latency"]
    return {
        "series": SERIES,
        "snapshots": SNAPSHOTS,
        "traces": TRACES,
        "rounds": plane.rounds,
        "decisions": plane.decisions_made,
        "recommendations": len(plane.recommendations),
        "ingest_wall_s": round(ingest_wall, 3),
        "snapshots_per_sec": round(SNAPSHOTS / ingest_wall, 1),
        "round_wall_s": [round(w, 3) for w in round_walls],
        "rec_p50_ms": latency["p50_ms"],
        "rec_p99_ms": latency["p99_ms"],
        "rec_mean_ms": latency["mean_ms"],
        "decisions_per_sec": status["decisions_per_sec"],
        "slo_compliance": status["slo"]["compliance"],
    }


def test_extension_service(benchmark):
    result = once(benchmark, run_bench)

    # Acceptance floors (generous: regression guards, not records).
    assert result["decisions"] >= SERIES * ROUNDS
    assert result["recommendations"] >= SERIES * 0.9
    assert result["rec_p99_ms"] is not None
    assert result["rec_p99_ms"] < 250.0, result
    assert result["decisions_per_sec"] > 20.0, result
    assert result["slo_compliance"] >= 0.9, result

    rows = [
        ["tracked series", str(result["series"])],
        ["control rounds (estimate-all)", str(result["rounds"])],
        ["decisions made", str(result["decisions"])],
        ["recommendation P50", f"{result['rec_p50_ms']:.2f} ms"],
        ["recommendation P99", f"{result['rec_p99_ms']:.2f} ms"],
        ["decisions / second", f"{result['decisions_per_sec']:.0f}"],
        ["per-rec SLO compliance",
         f"{result['slo_compliance'] * 100:.1f}%"],
        ["snapshot ingest rate",
         f"{result['snapshots_per_sec']:.0f}/s "
         f"({result['series']} series each)"],
    ]
    text = ascii_table(["metric", "value"], rows,
                       title=f"service controller SLOs "
                             f"({result['series']} series)")
    publish("extension_service", text)
    publish_json("extension_service", result)
