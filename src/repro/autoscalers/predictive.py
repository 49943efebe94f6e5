"""Predictive (trend-extrapolating) horizontal autoscaler.

An additional baseline beyond the paper's reactive scalers: fits a
linear trend to the recent utilization series and scales on the
*forecast* utilization one horizon ahead, so capacity arrives before
the burst instead of after it. Statistical-profiling autoscalers of
this family (e.g. AutoScale itself, the source of the six traces) are
the classic alternative to threshold rules.
"""

from __future__ import annotations

import math

import numpy as np

from repro.app.service import Microservice
from repro.autoscalers.base import Autoscaler, ScaleEvent
from repro.core.monitoring import MonitoringModule
from repro.sim.engine import Environment


class PredictiveAutoscaler(Autoscaler):
    """Trend-forecast replica scaling.

    Args:
        env: simulation environment.
        service: the scaled service.
        monitoring: utilization source.
        target_utilization: desired utilization fraction at the
            forecast point.
        horizon: how far ahead (seconds) to extrapolate the trend.
        history: utilization window used for the fit.
        min_replicas / max_replicas: bounds.
        period: control period.
        scale_down_stabilization: persistence required for scale-down.
    """

    def __init__(self, env: Environment, service: Microservice,
                 monitoring: MonitoringModule, *,
                 target_utilization: float = 0.5, horizon: float = 30.0,
                 history: float = 60.0, min_replicas: int = 1,
                 max_replicas: int = 8, period: float = 15.0,
                 scale_down_stabilization: float = 60.0) -> None:
        super().__init__(env, period=period)
        if not 0.0 < target_utilization <= 1.0:
            raise ValueError(
                f"target_utilization must be in (0, 1], got "
                f"{target_utilization}")
        if horizon <= 0 or history <= 0:
            raise ValueError("horizon and history must be positive")
        if not 1 <= min_replicas <= max_replicas:
            raise ValueError(
                f"need 1 <= min_replicas <= max_replicas, got "
                f"[{min_replicas}, {max_replicas}]")
        self.service = service
        self.monitoring = monitoring
        self.target_utilization = target_utilization
        self.horizon = horizon
        self.history = history
        self.min_replicas = min_replicas
        self.max_replicas = max_replicas
        self.scale_down_stabilization = scale_down_stabilization
        self._below_since: float | None = None

    def forecast_utilization(self) -> float:
        """Linear-trend extrapolation of utilization, clamped >= 0."""
        times, values, _busy = self.monitoring.cpu[
            self.service.name].window(self.env.now - self.history)
        if values.size == 0:
            return 0.0
        if values.size < 3:
            return float(values[-1])
        slope, intercept = np.polyfit(times, values, 1)
        predicted = slope * (self.env.now + self.horizon) + intercept
        return max(0.0, float(predicted))

    def desired_replicas(self) -> int:
        """Replica recommendation for the forecast utilization."""
        predicted = self.forecast_utilization()
        current = self.service.replica_count
        desired = math.ceil(current * predicted /
                            self.target_utilization) \
            if predicted > 0 else self.min_replicas
        return max(self.min_replicas, min(self.max_replicas, desired))

    def control(self) -> None:
        current = self.service.replica_count
        desired = self.desired_replicas()
        if desired > current:
            self._below_since = None
            self._apply(current, desired)
        elif desired < current:
            if self._below_since is None:
                self._below_since = self.env.now
            if self.env.now - self._below_since >= \
                    self.scale_down_stabilization:
                self._apply(current, desired)
                self._below_since = None
        else:
            self._below_since = None

    def _apply(self, before: int, after: int) -> None:
        self.service.scale_replicas(after)
        self._emit(ScaleEvent(time=self.env.now, service=self.service.name,
                              kind="horizontal", before=before,
                              after=after))
