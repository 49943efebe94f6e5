"""Ablation — estimation window length (§4.1).

The paper picks a 60 s window: long enough to accumulate ~600 pairs at
100 ms granularity, short enough to stay agile to workload and system
changes. This ablation runs Sora with different windows on the same
bursty trace.
"""

from benchmarks._common import (
    MIN_USERS,
    PEAK_USERS,
    SLA,
    TRACE_DURATION,
    once,
    publish,
)
from repro.core import EstimatorConfig
from repro.experiments import run_scenario, sock_shop_cart_scenario
from repro.experiments.reporting import ascii_table
from repro.workloads import quick_varying

WINDOWS = [15.0, 30.0, 60.0, 120.0]


def run_all():
    results = {}
    for window in WINDOWS:
        trace = quick_varying(duration=TRACE_DURATION,
                              peak_users=PEAK_USERS,
                              min_users=MIN_USERS)
        scenario = sock_shop_cart_scenario(
            trace=trace, controller="sora", autoscaler="firm", sla=SLA)
        # Rewire the controller with the ablated window.
        scenario.controller.estimator_config = EstimatorConfig(
            window=window)
        results[window] = run_scenario(scenario, duration=TRACE_DURATION)
    return results


def render(results) -> str:
    rows = []
    for window, result in results.items():
        summary = result.summary_row()
        rows.append([f"{window:.0f} s", summary["goodput_rps"],
                     summary["p95_ms"], summary["p99_ms"],
                     len(result.adaptation_actions)])
    return ascii_table(
        ["window", "goodput", "p95 [ms]", "p99 [ms]", "adaptations"],
        rows,
        title="Ablation: estimation window length "
              "(Quick Varying, SLA 400 ms; paper default 60 s)")


def test_ablation_window(benchmark):
    results = once(benchmark, run_all)
    publish("ablation_window", render(results))
    goodputs = {w: r.goodput() for w, r in results.items()}
    # Every window setting keeps the controller functional...
    assert all(g > 0 for g in goodputs.values())
    # ...and the paper's default (60 s) is within 15% of the best.
    assert goodputs[60.0] >= 0.85 * max(goodputs.values())
