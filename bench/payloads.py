"""Seeded inputs for the control-plane workloads.

The benchmark writes its own OpenMetrics text and Jaeger JSON instead of
calling the program's renderers, so a change to the program cannot
change what it is fed. The same seed always yields byte-identical
payloads.

Every series follows its own saturating goodput curve
``amp * q / (1 + q / knee)`` plus Gaussian noise, as the service
extension bench does, with the knee, amplitude and phase drawn from the
seed.
"""

from __future__ import annotations

import json
import random

#: Microsecond epoch of logical time zero (any constant works; this one
#: matches the program's Jaeger export).
EPOCH_US = 1_600_000_000_000_000


class Fleet:
    """``series`` monitored services with seeded goodput curves."""

    def __init__(self, seed: int, series: int) -> None:
        self.rng = random.Random(seed)
        self.names = [f"svc-{index:04d}" for index in range(series)]
        self.knee = [self.rng.uniform(4.0, 16.0) for _ in self.names]
        self.amp = [self.rng.uniform(15.0, 35.0) for _ in self.names]
        self.phase = [self.rng.randrange(20) for _ in self.names]
        self.utilization = [0.75 + 0.2 * (index % 10) / 10.0
                            for index in range(series)]

    def snapshot(self, step: int, now: float) -> str:
        """One scrape at logical time ``now`` (OpenMetrics text)."""
        gauss = self.rng.gauss
        concurrency, goodput = [], []
        for index, name in enumerate(self.names):
            q = 1.0 + (step + self.phase[index]) % 20
            rate = self.amp[index] * q / (1.0 + q / self.knee[index])
            concurrency.append(f'sora_concurrency{{service="{name}"}} '
                               f"{q:.10g}")
            goodput.append(f'sora_goodput{{service="{name}"}} '
                           f"{max(0.0, rate + gauss(0.0, 1.0)):.10g}")
        utilization = [f'sora_utilization{{service="{name}"}} {value:.10g}'
                       for name, value in zip(self.names,
                                              self.utilization)]
        lines = ["# TYPE sora_now gauge", f"sora_now {now:.10g}",
                 "# TYPE sora_concurrency gauge", *concurrency,
                 "# TYPE sora_goodput gauge", *goodput,
                 "# TYPE sora_utilization gauge", *utilization, "# EOF"]
        return "\n".join(lines) + "\n"

    def traces(self, count: int, since: float, until: float,
               first_id: int, traced: int) -> str:
        """``count`` front-end -> service traces arriving in
        ``[since, until)`` across the first ``traced`` services (Jaeger
        JSON, trace ids from ``first_id``)."""
        rng = self.rng
        data = []
        for offset in range(count):
            trace_id = first_id + offset
            service = self.names[rng.randrange(min(traced,
                                                   len(self.names)))]
            arrival = since + (until - since) * offset / count
            work = 0.15 + 0.01 * rng.randrange(7)
            child_start = arrival + 0.005
            root_duration = 0.005 + work + 0.005
            tid = format(trace_id, "032x")
            root_id = format(2 * trace_id, "016x")
            data.append({
                "traceID": tid,
                "spans": [
                    _span(tid, root_id, None, "front-end", "request",
                          arrival, root_duration, 0.0),
                    _span(tid, format(2 * trace_id + 1, "016x"), root_id,
                          service, "work", child_start, work, 0.001),
                ],
                "processes": {
                    "front-end": {"serviceName": "front-end", "tags": []},
                    service: {"serviceName": service, "tags": []},
                },
            })
        return json.dumps({"data": data}, sort_keys=True)


def _span(trace_id: str, span_id: str, parent: str | None, service: str,
          operation: str, start: float, duration: float,
          queue_wait: float) -> dict:
    references = ([{"refType": "CHILD_OF", "traceID": trace_id,
                    "spanID": parent}] if parent else [])
    return {
        "traceID": trace_id, "spanID": span_id,
        "operationName": f"{service}.{operation}",
        "references": references,
        "startTime": EPOCH_US + round(start * 1e6),
        "duration": round(duration * 1e6),
        "tags": [{"key": "operation", "type": "string",
                  "value": operation},
                 {"key": "queue_wait_us", "type": "int64",
                  "value": round(queue_wait * 1e6)}],
        "processID": service,
    }


def rounds_payload(seed: int, series: int, warmup: int, rounds: int,
                   per_round: int, traces: int, spacing: float
                   ) -> dict:
    """Inputs of the in-process round workload.

    ``warmup`` snapshots plus one trace batch fill the estimation window
    before timing starts; each timed round then carries ``per_round``
    snapshots and one ``traces``-trace batch.
    """
    fleet = Fleet(seed, series)
    step = 0
    warm = []
    for _ in range(warmup):
        step += 1
        warm.append(fleet.snapshot(step, spacing * step))
    warm_traces = fleet.traces(traces, 0.0, spacing * step, 1, 64)
    timed = []
    for index in range(rounds):
        since = spacing * step
        snapshots = []
        for _ in range(per_round):
            step += 1
            snapshots.append(fleet.snapshot(step, spacing * step))
        timed.append((snapshots, fleet.traces(
            traces, since, spacing * step, 1 + traces * (index + 1), 64)))
    return {"warmup": warm, "warmup_traces": warm_traces, "rounds": timed}


#: One block of the mixed HTTP workload: 7 metric snapshots, one trace
#: batch, one read and one control tick.
BLOCK = ("metrics", "metrics", "metrics", "jaeger", "metrics", "metrics",
         "read", "metrics", "metrics", "tick")


def http_payload(seed: int, requests: int, series: int, traces: int,
                 spacing: float) -> list[tuple[str, str, str | None]]:
    """``(method, path, body)`` for each request of the HTTP workload.

    Reads alternate between ``/recommendations`` and ``/metrics`` from
    one block to the next.
    """
    fleet = Fleet(seed, series)
    plan: list[tuple[str, str, str | None]] = []
    step = 0
    block = 0
    while len(plan) < requests:
        since = spacing * step
        per_block = BLOCK.count("metrics")
        for kind in BLOCK:
            if kind == "metrics":
                step += 1
                plan.append(("POST", "/ingest/openmetrics",
                             fleet.snapshot(step, spacing * step)))
            elif kind == "jaeger":
                plan.append(("POST", "/ingest/jaeger", fleet.traces(
                    traces, since, since + spacing * per_block,
                    1 + traces * block, min(64, series))))
            elif kind == "read":
                plan.append(("GET", ("/recommendations", "/metrics")[
                    block % 2], None))
            else:
                plan.append(("POST", "/control/tick", ""))
        block += 1
    return plan[:requests]
