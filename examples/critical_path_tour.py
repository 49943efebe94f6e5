"""A guided tour of the SCG model's phases on live traces.

Walks the four phases of the Scatter-Concurrency-Goodput model (paper
Fig. 6) against a running Sock Shop:

1. critical service localization (utilization + Pearson correlation);
2. response-time threshold propagation along the critical path;
3. <concurrency, goodput> metrics collection at 100 ms granularity;
4. knee-point estimation (polynomial smoothing + Kneedle).

Run:
    python examples/critical_path_tour.py

Set ``REPRO_EXAMPLE_SMOKE=1`` for a CI-sized run (one estimation
window instead of two).
"""

import os

import numpy as np

from repro.analysis import aggregate_scatter
from repro.app.topologies import build_sock_shop
from repro.core import (
    CriticalServiceLocator,
    DeadlinePropagator,
    MonitoringModule,
    SCGModel,
    ThreadPoolTarget,
)
from repro.experiments.reporting import ascii_table, sparkline
from repro.metrics import ConcurrencyGoodputSampler
from repro.sim import Environment, RandomStreams
from repro.tracing import critical_path_frequencies, extract_critical_path
from repro.workloads import ClosedLoopDriver, WorkloadTrace

SLA = 0.4
WINDOW = 60.0
DURATION = 70.0 if os.environ.get("REPRO_EXAMPLE_SMOKE", "") == "1" \
    else 120.0


def main() -> None:
    env = Environment()
    streams = RandomStreams(7)
    app = build_sock_shop(env, streams, cart_threads=8, cart_cores=2.0)
    cart = app.service("cart")
    monitoring = MonitoringModule(env, app)
    monitoring.start()

    # Drive the "browse" request type: the front-end fans out to Cart
    # and Catalogue in parallel (Fig. 5), so the critical path varies.
    import math
    trace = WorkloadTrace("tour", DURATION, 400, 120,
                          lambda u: 0.55 + 0.45 * math.sin(
                              2 * math.pi * 4.0 * u))
    driver = ClosedLoopDriver(env, app, "browse", trace,
                              streams.stream("driver"))

    target = ThreadPoolTarget(cart)
    sampler = ConcurrencyGoodputSampler(
        env, concurrency_integral=target.concurrency_integral,
        completion_source=target.completion_latencies,
        threshold_provider=lambda: SLA)
    sampler.start()
    driver.start()
    env.run(until=DURATION)

    now = env.now
    traces = app.warehouse.traces(now - WINDOW, now)
    print(f"collected {len(traces)} traces in the last "
          f"{WINDOW:.0f} s window\n")

    # ------------------------------------------------------------------
    print("Phase 1 - critical service localization")
    frequencies = critical_path_frequencies(traces)
    rows = [[" -> ".join(path), count]
            for path, count in sorted(frequencies.items(),
                                      key=lambda kv: -kv[1])]
    print(ascii_table(["critical path", "traces"], rows))
    locator = CriticalServiceLocator(exclude=("front-end",))
    report = locator.locate(traces, monitoring.utilizations(WINDOW))
    corr_rows = [[svc, round(pcc, 3),
                  round(report.utilizations.get(svc, 0.0), 2)]
                 for svc, pcc in sorted(report.correlations.items(),
                                        key=lambda kv: -kv[1])]
    print(ascii_table(["service", "PCC(PT, RT_CP)", "utilization"],
                      corr_rows))
    print(f"=> critical service: {report.critical_service}\n")

    # ------------------------------------------------------------------
    print("Phase 2 - RT threshold propagation")
    propagator = DeadlinePropagator(sla=SLA)
    deadline = propagator.propagate(traces, report.critical_service)
    print(f"SLA = {SLA * 1000:.0f} ms; mean upstream processing = "
          f"{deadline.upstream_budget * 1000:.1f} ms "
          f"({deadline.samples} traces)")
    print(f"=> propagated threshold for {deadline.service}: "
          f"{deadline.threshold * 1000:.1f} ms\n")

    # ------------------------------------------------------------------
    print("Phase 3 - metrics collection (100 ms granularity)")
    q, gp = sampler.pairs(since=now - WINDOW)
    print(f"collected {q.size} <Q, GP> pairs; "
          f"concurrency spans {q.min():.1f}..{q.max():.1f}")
    aq, agp = aggregate_scatter(np.round(q[q > 0] * 2) / 2, gp[q > 0])
    print("goodput vs concurrency (aggregated): "
          f"{sparkline(agp, width=40)}\n")

    # ------------------------------------------------------------------
    print("Phase 4 - knee-point estimation")
    estimate = SCGModel().estimate(q, gp, threshold=SLA)
    if estimate is None:
        print("not enough signal in this window - run longer")
        return
    print(f"polynomial degree: {estimate.fit.degree}  "
          f"(incrementally tuned, paper finds 5-8 adequate)")
    print(f"method: {estimate.method}")
    print(f"=> optimal Cart thread pool: "
          f"{estimate.optimal_concurrency} threads "
          f"(currently allocated: {target.allocation()})")

    example_trace = traces[-1]
    path = extract_critical_path(example_trace)
    print("\nsample request walkthrough:")
    for span in path.spans:
        print(f"  {span.service:<14} residence "
              f"{span.duration * 1000:7.2f} ms   self "
              f"{span.self_time() * 1000:7.2f} ms   queue-wait "
              f"{span.queue_wait * 1000:7.2f} ms")


if __name__ == "__main__":
    main()
