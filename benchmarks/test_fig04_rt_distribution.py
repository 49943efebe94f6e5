"""Figure 4 — response-time distributions under two thread allocations.

The paper's semi-log histograms for the 4-core Cart show why the
optimal allocation depends on the threshold: the large allocation's
distribution has a taller fast peak (better under a tight threshold)
but a heavier tail (worse under a loose one), so the goodput ordering
of the two allocations reverses between thresholds.

Regenerates: the two histograms (text bins) and a threshold sweep
reporting the goodput of each allocation and where the ordering flips.
"""

import numpy as np

from benchmarks._common import once, publish, scaled
from repro.app.topologies import build_sock_shop
from repro.experiments.reporting import ascii_table, sparkline
from repro.metrics import response_time_histogram
from repro.sim import Environment, RandomStreams
from repro.workloads import ClosedLoopDriver, WorkloadTrace

SMALL_ALLOC = 8
LARGE_ALLOC = 15
CORES = 4.0
USERS = 620
DURATION = 120.0


def run_one(threads: int):
    env = Environment()
    streams = RandomStreams(11)
    app = build_sock_shop(env, streams, cart_threads=threads,
                          cart_cores=CORES)
    duration = scaled(DURATION)
    trace = WorkloadTrace("flat", duration, USERS, USERS, lambda u: 1.0)
    driver = ClosedLoopDriver(env, app, "cart", trace,
                              streams.stream("drv"), ramp_up=5.0)
    driver.start()
    env.run(until=duration + 2.0)
    return app.latency["cart"].window()[1], duration


def run_pair():
    return {threads: run_one(threads)
            for threads in (SMALL_ALLOC, LARGE_ALLOC)}


def render(results) -> tuple[str, list]:
    sections = []
    for threads, (latencies, _duration) in results.items():
        centers, counts = response_time_histogram(
            latencies, bin_width=0.025, maximum=0.7)
        log_counts = np.log10(np.maximum(counts, 1))
        sections.append(
            f"--- {threads} threads: response-time histogram "
            f"(25 ms bins, log scale) ---\n"
            f"  {sparkline(log_counts, width=28)}   "
            f"n={latencies.size}  p50={np.percentile(latencies, 50) * 1000:.0f} ms  "
            f"p95={np.percentile(latencies, 95) * 1000:.0f} ms")

    rows = []
    crossovers = []
    previous_order = None
    for threshold in (0.020, 0.035, 0.050, 0.100, 0.150, 0.250, 0.350):
        goodputs = {}
        for threads, (latencies, duration) in results.items():
            goodputs[threads] = float(
                np.count_nonzero(latencies <= threshold)) / duration
        order = (goodputs[SMALL_ALLOC] >= goodputs[LARGE_ALLOC])
        if previous_order is not None and order != previous_order:
            crossovers.append(threshold)
        previous_order = order
        winner = SMALL_ALLOC if order else LARGE_ALLOC
        rows.append([f"{threshold * 1000:.0f} ms",
                     round(goodputs[SMALL_ALLOC], 1),
                     round(goodputs[LARGE_ALLOC], 1),
                     f"{winner} threads"])
    sections.append(ascii_table(
        ["RT threshold", f"goodput @{SMALL_ALLOC} thr",
         f"goodput @{LARGE_ALLOC} thr", "winner"],
        rows,
        title="Goodput vs threshold (the paper's ordering reversal)"))
    return "\n\n".join(sections), crossovers


def test_fig04_rt_distribution(benchmark):
    results = once(benchmark, run_pair)
    text, crossovers = render(results)
    text += (f"\n\nOrdering flips at threshold(s): "
             f"{[f'{c * 1000:.0f} ms' for c in crossovers] or 'none observed'}")
    publish("fig04_rt_distribution", text)
    small, _d1 = results[SMALL_ALLOC]
    large, _d2 = results[LARGE_ALLOC]
    # Shape: the larger pool's distribution must have the heavier tail
    # or the smaller pool the slower bulk — i.e. they must differ.
    assert np.percentile(small, 50) != np.percentile(large, 50) or \
        np.percentile(small, 99) != np.percentile(large, 99)
