"""Monitoring Module (paper §4.1).

Collects the two metric families Sora consumes:

- **system-level metrics**: per-service CPU utilization, sampled by a
  cAdvisor-style agent (the signal hardware-only autoscalers act on);
- **performance metrics**: request traces (the application already
  streams them into the :class:`TraceWarehouse`), plus per-service
  completion logs for goodput extraction.

The module also performs the housekeeping a real deployment delegates
to retention policies: pruning the warehouse and completion logs so
memory stays bounded by the analysis window.
"""

from __future__ import annotations

import logging
import typing as _t

from repro.app.application import Application
from repro.metrics.sampler import TimeSeries
from repro.sim.engine import Environment

if _t.TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.obs import Observability

logger = logging.getLogger(__name__)


class MonitoringModule:
    """Periodic utilization sampling + trace retention for one app.

    Args:
        env: simulation environment.
        app: the monitored application.
        interval: utilization sampling period (seconds).
        retention: how much history to keep (seconds); should exceed the
            longest analysis window used by models and autoscalers.
        obs: optional observability scope; when its timeline is
            enabled, each sampled per-service utilization fraction is
            also streamed into a ``cpu.<service>`` telemetry series.
    """

    def __init__(self, env: Environment, app: Application,
                 interval: float = 1.0, retention: float = 300.0,
                 obs: "Observability | None" = None) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        if retention <= 0:
            raise ValueError(f"retention must be positive, got {retention}")
        self.env = env
        self.app = app
        self.interval = interval
        self.retention = retention
        self.obs = obs
        #: service -> (utilization fraction, busy cores) rows: busy over
        #: capacity, and CPU use in core units (the "Pod CPU Util %"
        #: panel of Figs. 10-12 is busy cores * 100).
        self.cpu: dict[str, TimeSeries] = {
            name: TimeSeries(2) for name in app.services}
        self._last_totals: dict[str, tuple[float, float]] = {}
        self._started = False

    def start(self) -> None:
        """Launch the sampling loop (idempotent)."""
        if self._started:
            return
        self._started = True
        logger.debug("monitoring %d services every %.1fs (retention "
                     "%.0fs)", len(self.app.services), self.interval,
                     self.retention)
        for name, service in self.app.services.items():
            self._last_totals[name] = service.cpu_totals()
        self.env.process(self._loop(), name="monitoring")

    def utilization_over(self, service: str, window: float) -> float:
        """Mean utilization fraction over the trailing ``window``."""
        return self._mean(service, window, 1)

    def busy_cores_over(self, service: str, window: float) -> float:
        """Mean busy cores over the trailing ``window``."""
        return self._mean(service, window, 2)

    def _mean(self, service: str, window: float, column: int) -> float:
        values = self.cpu[service].window(self.env.now - window)[column]
        if values.size == 0:
            return 0.0
        return float(values.mean())

    def utilizations(self, window: float) -> dict[str, float]:
        """Mean utilization per service over the trailing ``window``."""
        return {name: self.utilization_over(name, window)
                for name in self.cpu}

    def _loop(self):
        timeline = (self.obs.timeline
                    if self.obs is not None and self.obs else None)
        while True:
            yield self.env.timeout(self.interval)
            now = self.env.now
            for name, service in self.app.services.items():
                busy, capacity = service.cpu_totals()
                last_busy, last_capacity = self._last_totals[name]
                self._last_totals[name] = (busy, capacity)
                delta_busy = busy - last_busy
                delta_capacity = capacity - last_capacity
                fraction = (delta_busy / delta_capacity
                            if delta_capacity > 0 else 0.0)
                self.cpu[name].append(now, fraction,
                                      delta_busy / self.interval)
                if timeline:
                    timeline.record(f"cpu.{name}", now, fraction)
            horizon = now - self.retention
            if horizon > 0:
                self.app.warehouse.prune(horizon)
                for name, service in self.app.services.items():
                    service.metrics.prune(horizon)
                    self.cpu[name].prune(horizon)
