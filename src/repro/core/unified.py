"""Unified hardware + soft resource controller (paper §4.1 future work).

The paper keeps hardware scaling and concurrency adaptation in separate
loops for composability, noting that "a unified controller can
potentially be an ideal solution for this joint optimization problem,
which is subject to our future work". This module implements that
extension: one control loop that owns *both* knobs for the critical
service.

Decision logic per control period, on top of the inherited SCG
machinery:

1. Run the normal Sora adaptation step (pool sizing from the goodput
   knee / saturation rules).
2. Diagnose which resource binds, from the same window:
   - pool saturated *and* the service's CPU near its limit → the
     hardware is the wall: scale the CPU limit up and bootstrap the
     pool proportionally in the same actuation (no cross-controller
     handoff latency);
   - CPU comfortably idle for a sustained period and no SLO pressure →
     scale the CPU limit down (the pool follows at the next periodic
     estimate).

Compared with Sora-over-FIRM, the unified loop removes the delay
between the hardware action and the soft-resource catch-up.
"""

from __future__ import annotations

import math
import typing as _t
from dataclasses import dataclass

import numpy as np

from repro.app.application import Application
from repro.autoscalers.base import ScaleEvent
from repro.core import policy
from repro.core.monitoring import MonitoringModule
from repro.core.sora import SoraController
from repro.core.targets import SoftResourceTarget
from repro.sim.engine import Environment


@dataclass
class UnifiedConfig:
    """Hardware-side knobs of the unified controller."""

    min_cores: float = 1.0
    max_cores: float = 8.0
    step: float = 1.0
    utilization_high: float = 0.75
    utilization_low: float = 0.3
    scale_down_stabilization: float = 60.0
    window: float = 15.0

    def __post_init__(self) -> None:
        if not 0 < self.min_cores <= self.max_cores:
            raise ValueError(
                f"need 0 < min_cores <= max_cores, got "
                f"[{self.min_cores}, {self.max_cores}]")
        if self.step <= 0:
            raise ValueError(f"step must be positive, got {self.step}")
        if not 0 <= self.utilization_low < self.utilization_high <= 1:
            raise ValueError("need 0 <= low < high <= 1")


class UnifiedSoraController(SoraController):
    """Joint hardware + soft resource control for the target services.

    Unlike :class:`SoraController`, no external autoscaler is attached:
    this controller owns the vertical CPU limit of every target's
    service itself and emits the same :class:`ScaleEvent` records into
    :attr:`hardware_log`.
    """

    def __init__(self, env: Environment, app: Application,
                 monitoring: MonitoringModule,
                 targets: _t.Sequence[SoftResourceTarget], *, sla: float,
                 unified_config: UnifiedConfig | None = None,
                 **kwargs) -> None:
        kwargs.pop("autoscaler", None)
        super().__init__(env, app, monitoring, targets, sla=sla,
                         autoscaler=None, **kwargs)
        self.unified = unified_config or UnifiedConfig()
        self.hardware_log: list[ScaleEvent] = []
        self._calm_since: dict[str, float] = {}

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------
    def control(self) -> None:
        super().control()
        for target in self.targets:
            self._scale_hardware(target)

    def _scale_hardware(self, target: SoftResourceTarget) -> None:
        service = target.service
        config = self.unified
        utilization = self.monitoring.utilization_over(
            service.name, config.window)
        current = service.cores_per_replica
        sampler = self.samplers[target.name]

        slo_pressure = not policy.can_grow(
            self._thresholds[target.name],
            self._processing_p90(target)) or \
            self._badput_fraction(target) > 0.05

        if utilization > config.utilization_high and \
                current < config.max_cores and slo_pressure:
            after = min(config.max_cores, current + config.step)
            self._apply_cores(service, current, after)
            # Joint actuation: bootstrap the pool for the new capacity
            # immediately instead of waiting for a scale event.
            ratio = after / current
            bootstrap = min(self.config.max_allocation, max(
                self._desired[target.name] + 1,
                math.ceil(self._desired[target.name] * ratio)))
            self._apply(target, bootstrap, "proportional", "bootstrap")
            sampler.prune(self.env.now)
            self._calm_since.pop(service.name, None)
        elif utilization < config.utilization_low and \
                current > config.min_cores and not slo_pressure:
            started = self._calm_since.setdefault(service.name,
                                                  self.env.now)
            if self.env.now - started >= config.scale_down_stabilization:
                after = max(config.min_cores, current - config.step)
                self._apply_cores(service, current, after)
                sampler.prune(self.env.now)
                self._calm_since.pop(service.name, None)
        else:
            self._calm_since.pop(service.name, None)

    def _badput_fraction(self, target: SoftResourceTarget) -> float:
        """Share of recent completions missing the local threshold."""
        since = self.env.now - self.estimator_config.window
        latencies = target.completion_latencies(since, self.env.now)
        if latencies.size == 0:
            return 0.0
        threshold = self._thresholds[target.name]
        return float(np.count_nonzero(latencies > threshold)) / \
            latencies.size

    def _apply_cores(self, service, before: float, after: float) -> None:
        service.set_cores(after)
        self.hardware_log.append(ScaleEvent(
            time=self.env.now, service=service.name, kind="vertical",
            before=before, after=after))
