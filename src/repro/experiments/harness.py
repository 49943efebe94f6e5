"""Scenario harness: assemble, run, and summarize one experiment.

Every table and figure reproduction runs through this module: it wires
an application, a workload driver, optional autoscaler and concurrency
controller together, runs the simulation, and collects the time series
the paper plots (end-to-end response time, goodput, per-service CPU,
pool allocation/occupancy) plus summary statistics.
"""

from __future__ import annotations

import logging
import typing as _t
from dataclasses import dataclass, field

import numpy as np

import repro.obs as obs_mod
from repro.app.application import Application
from repro.autoscalers.base import Autoscaler, ScaleEvent
from repro.core.monitoring import MonitoringModule
from repro.core.sora import (
    AdaptationAction,
    ConcurrencyAdaptationFramework,
)
from repro.core.targets import SoftResourceTarget
from repro.metrics.sampler import IntervalSampler
from repro.metrics.summary import (
    LatencySummary,
    bucketed_percentile,
    bucketed_rate,
)
from repro.sim.engine import Environment
from repro.sim.rng import RandomStreams

if _t.TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.faults.injectors import FaultInjector
    from repro.obs.events import FaultRecord
    from repro.obs.slo import SLOMonitor, SLOSpec

logger = logging.getLogger(__name__)


@dataclass
class Scenario:
    """A fully assembled experiment, ready to run.

    Attributes:
        name: label for reports.
        env / streams: simulation kernel objects.
        app: the application under test.
        monitoring: the monitoring module (created if absent).
        drivers: workload drivers (objects with ``start()``).
        controller: concurrency adaptation framework (Sora/ConScale) or
            ``None`` for soft-resource-static baselines.
        autoscaler: hardware autoscaler or ``None``.
        target: primary adapted soft resource (series are recorded for
            it even when no controller is attached).
        request_type: the request class reported on.
        sla: the end-to-end SLA used for goodput reporting (seconds).
        extra_probes: additional ``name -> callable`` probes sampled
            once per second into the result.
        obs: observability scope for the run; defaults to the disabled
            :data:`repro.obs.NULL` so baselines pay no audit cost.
        faults: optional :class:`~repro.faults.injectors.FaultInjector`
            started just before the run; ``None`` (the default) keeps
            the run byte-identical to a fault-free build.
        slo: optional latency SLO to monitor during the run — an
            :class:`~repro.obs.slo.SLOSpec` (guarded with the default
            burn-rate rules) or a pre-configured
            :class:`~repro.obs.slo.SLOMonitor`. Requires an enabled
            ``obs``; the monitor lands on ``obs.slo`` and its alert
            transitions in the decision log.
    """

    name: str
    env: Environment
    streams: RandomStreams
    app: Application
    monitoring: MonitoringModule
    drivers: list
    request_type: str
    sla: float
    controller: ConcurrencyAdaptationFramework | None = None
    autoscaler: Autoscaler | None = None
    target: SoftResourceTarget | None = None
    extra_probes: dict[str, _t.Callable[[], float]] = field(
        default_factory=dict)
    obs: obs_mod.Observability = field(
        default_factory=lambda: obs_mod.NULL)
    faults: "FaultInjector | None" = None
    slo: "SLOSpec | SLOMonitor | None" = None


@dataclass
class ScenarioResult:
    """Everything the paper's figures/tables need from one run."""

    name: str
    request_type: str
    sla: float
    duration: float
    completion_times: np.ndarray
    response_times: np.ndarray
    samples: dict[str, tuple[np.ndarray, np.ndarray]]
    scale_events: list[ScaleEvent]
    adaptation_actions: list[AdaptationAction]
    total_submitted: int
    #: The run's observability scope (disabled NULL when the scenario
    #: did not opt in); carries the decision log and phase timings.
    obs: "obs_mod.Observability" = field(
        default_factory=lambda: obs_mod.NULL)
    #: Requests abandoned after exhausting resilience policies.
    failed_total: int = 0
    #: Fault transitions the injector logged (empty without a plan).
    fault_events: "list[FaultRecord]" = field(default_factory=list)

    # ------------------------------------------------------------------
    # Summary statistics
    # ------------------------------------------------------------------
    def latency_summary(self) -> LatencySummary:
        """Distribution summary of end-to-end response times."""
        return LatencySummary.from_values(self.response_times)

    def percentile(self, q: float) -> float:
        """End-to-end latency percentile in seconds."""
        if self.response_times.size == 0:
            return 0.0
        return float(np.percentile(self.response_times, q))

    def goodput(self, threshold: float | None = None) -> float:
        """Mean goodput (req/s) under ``threshold`` (default: the SLA)."""
        threshold = self.sla if threshold is None else threshold
        good = int(np.count_nonzero(self.response_times <= threshold))
        return good / self.duration

    def throughput(self) -> float:
        """Mean completion rate over the run."""
        return self.response_times.size / self.duration

    # ------------------------------------------------------------------
    # Time series (figure panels)
    # ------------------------------------------------------------------
    def goodput_series(self, interval: float = 5.0,
                       threshold: float | None = None
                       ) -> tuple[np.ndarray, np.ndarray]:
        """Goodput over time (panel (i) of Figs. 10-12)."""
        threshold = self.sla if threshold is None else threshold
        good = self.response_times <= threshold
        return bucketed_rate(self.completion_times, interval=interval,
                             since=0.0, until=self.duration,
                             predicate=good)

    def response_time_series(self, interval: float = 5.0, q: float = 95.0
                             ) -> tuple[np.ndarray, np.ndarray]:
        """Per-bucket latency percentile over time."""
        return bucketed_percentile(
            self.completion_times, self.response_times,
            interval=interval, since=0.0, until=self.duration, q=q)

    def series(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """A recorded probe series by name (see :func:`run_scenario`)."""
        try:
            return self.samples[name]
        except KeyError:
            raise KeyError(f"unknown series {name!r} "
                           f"(have: {sorted(self.samples)})") from None

    def summary_row(self) -> dict[str, float]:
        """A flat dict for table rendering."""
        latency = self.latency_summary().scaled(1000.0)
        return {
            "requests": float(latency.count),
            "throughput_rps": round(self.throughput(), 1),
            "goodput_rps": round(self.goodput(), 1),
            "p50_ms": round(latency.p50, 1),
            "p95_ms": round(latency.p95, 1),
            "p99_ms": round(latency.p99, 1),
        }


def _attach_slo(scenario: Scenario) -> "SLOMonitor | None":
    """Resolve ``scenario.slo`` into a monitor on ``scenario.obs``."""
    if scenario.slo is None:
        return None
    if not scenario.obs:
        raise ValueError(
            "Scenario.slo requires an enabled Observability (the SLO "
            "monitor emits AlertRecords into its decision log)")
    from repro.obs.slo import SLOMonitor
    monitor = scenario.slo
    if not isinstance(monitor, SLOMonitor):
        monitor = SLOMonitor(monitor)
    scenario.obs.slo = monitor
    return monitor


def _telemetry_pump(scenario: Scenario, slo: "SLOMonitor | None",
                    interval: float):
    """Streaming-telemetry process: one tick per ``interval``.

    Each tick drains the newly completed requests of the scenario's
    request type, folds their latencies into a P² sketch (so P50/P99
    series never retain raw samples), feeds the SLO monitor (counting
    abandoned requests as bad), evaluates burn-rate rules, and records
    the goodput / latency / event-queue depth / pool / breaker /
    burn-rate series. The pump is a pure observer — it reads
    simulation state and writes only into ``scenario.obs`` — so
    enabling it never changes simulated outcomes; it is only *started*
    when telemetry is on, so default runs keep byte-identical replay
    fingerprints.
    """
    from repro.obs.sketch import QuantileSketch

    env = scenario.env
    obs = scenario.obs
    timeline = obs.timeline
    app = scenario.app
    sla = scenario.sla
    target = scenario.target
    sketch = QuantileSketch((0.5, 0.99))
    last_drained = 0.0
    last_failed = app.failed_total
    while True:
        yield env.timeout(interval)
        now = env.now
        log = app.latency.get(scenario.request_type)
        times, latencies = (log.window(last_drained, now)
                            if log is not None
                            else (np.empty(0), np.empty(0)))
        last_drained = now
        good = int(np.count_nonzero(latencies <= sla))
        timeline.record("goodput", now, good / interval)
        timeline.record("sim.queue_depth", now, float(env.queue_depth))
        if latencies.size:
            sketch.observe_many(latencies)
            timeline.record("latency.p50", now, sketch.quantile(0.5))
            timeline.record("latency.p99", now, sketch.quantile(0.99))
        new_failures = app.failed_total - last_failed
        last_failed = app.failed_total
        if target is not None:
            timeline.record(f"pool.{target.name}.total", now,
                            float(target.total_allocation()))
        for service in app.services.values():
            for callee, state in service.breaker_states().items():
                level = {"closed": 0.0, "half-open": 0.5,
                         "open": 1.0}[state]
                timeline.record(
                    f"breaker.{service.name}->{callee}", now, level)
        if slo is not None:
            for when, latency in zip(times, latencies):
                slo.observe(float(when), float(latency))
            if new_failures:
                slo.observe_counts(now, 0, new_failures)
            slo.evaluate(now, obs.decisions if obs else None)
            for rule in slo.rules:
                timeline.record(
                    f"burn.{rule.name}", now,
                    slo.burn_rate(now, rule.long_window))
            timeline.record("slo.budget_remaining", now,
                            slo.budget_remaining(now))


def run_scenario(scenario: Scenario, duration: float,
                 probe_interval: float = 1.0,
                 drain: float = 2.0) -> ScenarioResult:
    """Run an assembled scenario and collect results.

    Args:
        scenario: the experiment to run.
        duration: simulated seconds of workload.
        probe_interval: sampling period for the recorded series.
        drain: extra simulated seconds allowed for in-flight requests.
    """
    env = scenario.env
    probes: dict[str, _t.Callable[[], float]] = {}
    target = scenario.target
    if target is not None:
        probes[f"{target.name}.allocation"] = \
            lambda: float(target.total_allocation())
        probes[f"{target.name}.in_use"] = \
            lambda: float(target.concurrency() *
                          max(1, target.service.replica_count))
        service = target.service
        probes[f"{service.name}.cores"] = \
            lambda: service.cores_per_replica * service.replica_count
        probes[f"{service.name}.replicas"] = \
            lambda: float(service.replica_count)
        probes[f"{service.name}.busy_cores"] = \
            lambda: scenario.monitoring.busy_cores_over(service.name, 1.0)
    probes.update(scenario.extra_probes)
    samplers = {
        name: IntervalSampler(env, probe, interval=probe_interval,
                              name=name)
        for name, probe in probes.items()
    }

    obs = scenario.obs
    slo = _attach_slo(scenario)
    if obs:
        logger.info("running %s for %.0fs (observability on)",
                    scenario.name, duration)
        if scenario.monitoring.obs is None:
            # Stream per-service utilization into the run's timeline.
            scenario.monitoring.obs = obs
        if obs.timeline or slo is not None:
            env.process(_telemetry_pump(scenario, slo,
                                        interval=probe_interval),
                        name="telemetry-pump")
    if scenario.controller is not None:
        scenario.controller.start()
    else:
        scenario.monitoring.start()
        if scenario.autoscaler is not None:
            scenario.autoscaler.start()
    for sampler in samplers.values():
        sampler.start()
    for driver in scenario.drivers:
        driver.start()
    if scenario.faults is not None:
        scenario.faults.start()
    with obs.phase("run"):
        env.run(until=duration + drain)
    if obs:
        obs.registry.counter("sim.events").inc(env.events_scheduled)

    times, latencies = scenario.app.latency[
        scenario.request_type].window(0.0, duration + drain)
    return ScenarioResult(
        name=scenario.name,
        request_type=scenario.request_type,
        sla=scenario.sla,
        duration=duration,
        completion_times=times,
        response_times=latencies,
        samples={name: sampler.series.window()
                 for name, sampler in samplers.items()},
        scale_events=(list(scenario.autoscaler.scale_log)
                      if scenario.autoscaler else []),
        adaptation_actions=(list(scenario.controller.actions)
                            if scenario.controller else []),
        total_submitted=scenario.app.total_submitted,
        obs=obs,
        failed_total=scenario.app.failed_total,
        fault_events=(list(scenario.faults.log)
                      if scenario.faults is not None else []),
    )
