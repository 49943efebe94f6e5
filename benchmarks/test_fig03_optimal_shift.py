"""Figure 3 — the optimal soft resource allocation shifts at runtime.

Six panels sweeping pool sizes under fixed workloads:

- (a)-(d): Cart thread pool under combinations of CPU limit (4-core /
  2-core) and RT threshold (150/250/350 ms); the goodput-maximizing
  allocation shifts with the core count, and looser thresholds make
  smaller pools competitive (the paper's threshold sensitivity).
- (e)-(f): Post Storage request connections under light (2-post) vs
  heavy (10-post) requests; the optimum shifts with the system state.

The thread grid adds 8/15 to the paper's {3,5,10,30,80,200} because our
substrate's optima sit between the paper's grid points (service demands
are ~5-10x lighter than the testbed's); over-allocation collapse and
all shift directions are preserved.
"""

import numpy as np

from benchmarks._common import once, publish, scaled
from repro.app.topologies import (
    build_social_network,
    build_sock_shop,
    set_request_weight,
)
from repro.experiments.reporting import ascii_table
from repro.sim import Environment, RandomStreams
from repro.workloads import ClosedLoopDriver, WorkloadTrace

THREAD_GRID = [3, 5, 8, 10, 15, 30, 80, 200]
CONN_GRID = [5, 10, 15, 30, 80, 200]
PANEL_DURATION = 60.0

CART_CASES = [
    ("(a) 4-core Cart, 250 ms threshold", 4.0, 0.250, 620),
    ("(b) 4-core Cart, 150 ms threshold", 4.0, 0.150, 620),
    ("(c) 2-core Cart, 250 ms threshold", 2.0, 0.250, 310),
    ("(d) 2-core Cart, 350 ms threshold", 2.0, 0.350, 310),
]


def flat_trace(users, duration):
    return WorkloadTrace("flat", duration, users, users, lambda u: 1.0)


def run_cart(threads: int, cores: float, users: int, seed: int = 1):
    env = Environment()
    streams = RandomStreams(seed)
    app = build_sock_shop(env, streams, cart_threads=threads,
                          cart_cores=cores)
    duration = scaled(PANEL_DURATION)
    driver = ClosedLoopDriver(env, app, "cart",
                              flat_trace(users, duration),
                              streams.stream("drv"), ramp_up=5.0)
    driver.start()
    env.run(until=duration + 2.0)
    return app.latency["cart"].window()[1], duration


def run_post_storage(connections: int, posts: int, users: int = 500,
                     seed: int = 1):
    env = Environment()
    streams = RandomStreams(seed)
    app = build_social_network(env, streams,
                               post_storage_connections=connections,
                               post_storage_replicas=2)
    set_request_weight(app, posts)
    duration = scaled(PANEL_DURATION)
    driver = ClosedLoopDriver(env, app, "read_home_timeline",
                              flat_trace(users, duration),
                              streams.stream("drv"), ramp_up=5.0)
    driver.start()
    env.run(until=duration + 2.0)
    return app.latency["read_home_timeline"].window()[1], duration


def goodput(latencies, threshold, duration) -> float:
    return float(np.count_nonzero(latencies <= threshold)) / duration


def render_panel(title, grid, goodputs) -> tuple[str, int | None]:
    peak = max(goodputs) or 1.0
    # A panel where every allocation is within 3% of the best carries
    # no optimum signal (the pool is non-binding) — report the tie.
    tie = all(gp >= 0.97 * peak for gp in goodputs)
    best = None if tie else grid[int(np.argmax(goodputs))]
    rows = [[size, round(gp, 1), round(gp / peak, 3),
             "<= optimal" if size == best else ""]
            for size, gp in zip(grid, goodputs)]
    suffix = "  [all allocations tie: pool non-binding]" if tie else ""
    table = ascii_table(
        ["pool size", "goodput [req/s]", "normalized", ""],
        rows, title=title + suffix)
    return table, best


def run_all():
    cart_runs: dict[tuple[float, int], tuple] = {}
    for _title, cores, _threshold, users in CART_CASES:
        for threads in THREAD_GRID:
            key = (cores, threads)
            if key not in cart_runs:
                cart_runs[key] = run_cart(threads, cores, users)
    cart_goodputs = {}
    for title, cores, threshold, _users in CART_CASES:
        values = []
        for threads in THREAD_GRID:
            latencies, duration = cart_runs[(cores, threads)]
            values.append(goodput(latencies, threshold, duration))
        cart_goodputs[title] = values

    post_goodputs = {}
    for title, posts in (
            ("(e) Post Storage, light requests (2 posts)", 2),
            ("(f) Post Storage, heavy requests (10 posts)", 10)):
        values = []
        for connections in CONN_GRID:
            latencies, duration = run_post_storage(connections, posts)
            values.append(goodput(latencies, 0.100, duration))
        post_goodputs[title] = values
    return cart_goodputs, post_goodputs


def test_fig03_optimal_shift(benchmark):
    cart_goodputs, post_goodputs = once(benchmark, run_all)
    panels = []
    optima = {}
    for title, values in cart_goodputs.items():
        table, best = render_panel(title, THREAD_GRID, values)
        panels.append(table)
        optima[title[1]] = best
    for title, values in post_goodputs.items():
        table, best = render_panel(title, CONN_GRID, values)
        panels.append(table)
        optima[title[1]] = best

    text = "\n\n".join(panels)
    text += ("\n\nMeasured optima per panel "
             "(paper: a=30, b=80, c=10, d=5, e=10, f=30): "
             f"{optima}")

    # Threshold-sensitivity margin: how competitive the small (5-thread)
    # allocation is against the best, per threshold, at 2 cores.
    c_vals = cart_goodputs[CART_CASES[2][0]]
    d_vals = cart_goodputs[CART_CASES[3][0]]
    small = THREAD_GRID.index(5)
    margin_250 = c_vals[small] / (max(c_vals) or 1.0)
    margin_350 = d_vals[small] / (max(d_vals) or 1.0)
    text += (f"\nSmall-pool competitiveness at 2 cores: "
             f"{margin_250:.2f} @250ms vs {margin_350:.2f} @350ms "
             f"(paper: looser threshold favors the smaller pool)")
    publish("fig03_optimal_shift", text)

    # Shape assertions (§2.3):
    assert optima["a"] is not None and optima["c"] is not None
    # more cores -> larger optimal thread pool,
    assert optima["a"] > optima["c"]
    # looser threshold makes the small allocation more competitive,
    assert margin_350 >= margin_250
    # heavy requests produce a sharp interior optimum; light may tie.
    assert optima["f"] is not None
    # over-allocation always collapses where an optimum exists.
    assert all(best != 200 for best in optima.values()
               if best is not None)
