"""Ablation — propagated per-service deadline vs the raw SLA (§3.2).

Sock Shop's front-end is thin, so propagation barely moves the
threshold there. This ablation instead uses a *deep* invocation chain
whose upstream stages consume a real fraction of the SLA:

    front-end -> aggregator (heavy compute) -> worker (thread pool,
    the adapted resource) -> db

With propagation, the worker's goodput threshold is the SLA minus the
measured upstream processing (aggregator + front-end self times); with
the ablated raw-SLA threshold, the worker is judged against a budget it
does not actually have, so the model over-estimates usable concurrency.
"""

import math

import numpy as np

from benchmarks._common import once, publish, scaled
from repro.app import Application, Call, Compute, Microservice, Operation
from repro.core import (
    FrameworkConfig,
    MonitoringModule,
    SoraController,
    ThreadPoolTarget,
)
from repro.experiments.reporting import ascii_table
from repro.sim import Environment, LogNormal, RandomStreams
from repro.workloads import ClosedLoopDriver, WorkloadTrace

SLA = 0.150
DURATION = 240.0
PEAK_USERS = 300


def build_chain(env, streams, worker_threads=30):
    app = Application(env)

    def svc(name, **kwargs):
        service = Microservice(env, name, streams.stream(name), **kwargs)
        return app.add_service(service)

    front_end = svc("front-end", cores=4.0)
    aggregator = svc("aggregator", cores=8.0, cpu_overhead=0.002)
    worker = svc("worker", cores=2.0, cpu_overhead=0.015,
                 thread_pool_size=worker_threads)
    db = svc("db", cores=4.0, cpu_overhead=0.015)

    db.add_operation(Operation("default", [
        Compute(LogNormal(0.006, cv=0.6))]))
    worker.add_operation(Operation("default", [
        Compute(LogNormal(0.004, cv=0.6)),
        Call("db"),
        Compute(LogNormal(0.002, cv=0.6)),
    ]))
    # The aggregator burns a meaningful share of the SLA upstream of
    # the worker (pre- and post-processing around the call).
    aggregator.add_operation(Operation("default", [
        Compute(LogNormal(0.012, cv=0.4)),
        Call("worker"),
        Compute(LogNormal(0.006, cv=0.4)),
    ]))
    front_end.add_operation(Operation("default", [
        Compute(LogNormal(0.001, cv=0.4)),
        Call("aggregator"),
    ]))
    app.set_entrypoint("go", "front-end", "default")
    app.validate()
    return app, worker


def run_one(propagate: bool):
    env = Environment()
    streams = RandomStreams(19)
    app, worker = build_chain(env, streams)
    monitoring = MonitoringModule(env, app)
    duration = scaled(DURATION)
    trace = WorkloadTrace(
        "osc", duration, PEAK_USERS, PEAK_USERS // 3,
        lambda u: 0.55 + 0.45 * math.sin(2 * math.pi * 5.0 * u))
    driver = ClosedLoopDriver(env, app, "go", trace,
                              streams.stream("drv"), ramp_up=10.0)
    controller = SoraController(
        env, app, monitoring, [ThreadPoolTarget(worker)], sla=SLA,
        config=FrameworkConfig(use_deadline_propagation=propagate))
    controller.start()
    driver.start()
    env.run(until=duration + 2.0)
    latencies = app.latency["go"].window()[1]
    thresholds = [a.threshold for a in controller.actions
                  if a.threshold is not None]
    return {
        "goodput": float(np.count_nonzero(latencies <= SLA)) / duration,
        "p95": float(np.percentile(latencies, 95)) if latencies.size
               else 0.0,
        "p99": float(np.percentile(latencies, 99)) if latencies.size
               else 0.0,
        "mean_threshold": (float(np.mean(thresholds))
                           if thresholds else float("nan")),
        "actions": len(controller.actions),
    }


def run_all():
    return {propagate: run_one(propagate)
            for propagate in (True, False)}


def render(results) -> str:
    rows = []
    for propagate, label in ((True, "propagated deadline"),
                             (False, "raw SLA threshold")):
        r = results[propagate]
        rows.append([label, round(r["mean_threshold"] * 1000, 1),
                     round(r["goodput"], 1), round(r["p95"] * 1000, 1),
                     round(r["p99"] * 1000, 1), r["actions"]])
    return ascii_table(
        ["threshold mode", "mean threshold used [ms]", "goodput",
         "p95 [ms]", "p99 [ms]", "adaptations"],
        rows,
        title=f"Ablation: deadline propagation on/off — deep chain "
              f"(SLA {SLA * 1000:.0f} ms, heavy upstream)")


def test_ablation_deadline_propagation(benchmark):
    results = once(benchmark, run_all)
    publish("ablation_deadline_propagation", render(results))
    with_prop, without = results[True], results[False]
    # The propagated threshold must be meaningfully tighter than the
    # SLA (the aggregator eats a visible share of the budget).
    assert with_prop["mean_threshold"] < SLA * 0.95
    # And propagation must not lose goodput.
    assert with_prop["goodput"] >= 0.9 * without["goodput"]
