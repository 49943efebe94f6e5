"""The Sora framework (paper §4) and the shared adaptation machinery.

Sora wires four pieces into a closed loop:

- **Monitoring Module** — utilization sampling + trace retention
  (:class:`~repro.core.monitoring.MonitoringModule`);
- **Concurrency Estimator** — one ``<concurrency, goodput>`` sampler
  per target, and one SCG model that estimates every target the round
  adapts over its trailing window in one batch
  (:func:`~repro.core.policy.decide_round`, the ``estimate.batch``
  phase, as in the service);
- **Reallocation Module** — a hardware-only autoscaler (HPA/VPA/FIRM)
  plus the *Concurrency Adapter* that re-applies optimal soft-resource
  allocations, immediately after hardware scale events and periodically
  as conditions drift;
- **SCG model phases 1–2** — critical service localization and deadline
  propagation feed the estimator its target and threshold.

The latency-agnostic baseline ConScale (§5.2) shares everything except
the model: it uses SCT (throughput knee) and no deadline propagation.
Both are thin configurations of :class:`ConcurrencyAdaptationFramework`.
"""

from __future__ import annotations

import logging
import math
import typing as _t
from dataclasses import dataclass

import numpy as np

import repro.obs as obs_mod
from repro.analysis.changepoint import PageHinkley
from repro.app.application import Application
from repro.autoscalers.base import Autoscaler, ScaleEvent
from repro.core import policy
from repro.core.deadline import DeadlinePropagator
from repro.core.localization import (
    CriticalServiceLocator,
    LocalizationReport,
)
from repro.core.monitoring import MonitoringModule
from repro.core.scg import ScatterModelConfig, SCGModel, SCTModel
from repro.core.targets import ClientPoolTarget, SoftResourceTarget
from repro.metrics.sampler import ConcurrencyGoodputSampler
from repro.obs.events import (
    ControlRoundRecord,
    DriftRecord,
    TargetDecision,
)
from repro.sim.engine import Environment

logger = logging.getLogger(__name__)

Trigger = _t.Literal["periodic", "scale-event", "bootstrap"]


@dataclass(frozen=True)
class AdaptationAction:
    """One applied soft-resource reallocation."""

    time: float
    target: str
    before: int
    after: int
    method: str
    trigger: Trigger
    threshold: float | None = None


@dataclass
class EstimatorConfig:
    """Estimation knobs (paper defaults).

    Attributes:
        sampling_interval: pair granularity — 100 ms gives the best
            MAPE in Table 1.
        window: trailing window the model sees — 60 s accumulates ~600
            points (§4.1). Each round drops samples older than twice
            the window.
    """

    sampling_interval: float = 0.1
    window: float = 60.0

    def __post_init__(self) -> None:
        if self.sampling_interval <= 0 or self.window <= 0:
            raise ValueError("all estimator periods must be positive")
        if self.window < self.sampling_interval:
            raise ValueError("window shorter than sampling interval")


@dataclass
class FrameworkConfig:
    """Control-loop knobs shared by Sora and ConScale.

    Attributes:
        control_period: how often the adapter re-evaluates targets.
        localization_window: trace window for critical-service
            localization and deadline propagation.
        min_allocation / max_allocation: hard per-replica bounds on any
            recommendation.
        use_deadline_propagation: when False, the goodput threshold
            stays pinned at the full end-to-end SLA instead of the
            propagated per-service deadline (ablation knob; §3.2 argues
            propagation is what keeps the threshold honest on deep
            critical paths).
        detect_drift: run a Page-Hinkley change detector on each
            target's per-period mean processing time; on detection the
            target's sample window is flushed so the model re-learns the
            new regime instead of averaging across regimes (extension
            beyond the paper; see DESIGN.md).
        localize_from_aggregates: nominate the critical service from
            the warehouse's streaming
            :class:`~repro.tracing.analytics.CriticalPathAggregator`
            (fed every finished trace *before* sampling) instead of
            the stored trace window. Makes localization invariant to
            trace sampling/eviction; requires an aggregator attached
            to the application's warehouse, otherwise the windowed
            path is used as before.
    """

    control_period: float = 15.0
    localization_window: float = 30.0
    min_allocation: int = 2
    max_allocation: int = 512
    use_deadline_propagation: bool = True
    detect_drift: bool = False
    localize_from_aggregates: bool = False

    def __post_init__(self) -> None:
        if self.control_period <= 0 or self.localization_window <= 0:
            raise ValueError("periods must be positive")
        if not 1 <= self.min_allocation <= self.max_allocation:
            raise ValueError(
                f"need 1 <= min_allocation <= max_allocation, got "
                f"[{self.min_allocation}, {self.max_allocation}]")


class ConcurrencyAdaptationFramework:
    """Monitoring + estimation + reallocation for a set of targets."""

    #: Model label ("scg" for Sora, "sct" for ConScale).
    model_name: str = "scg"

    def __init__(self, env: Environment, app: Application,
                 monitoring: MonitoringModule,
                 targets: _t.Sequence[SoftResourceTarget], *,
                 sla: float | None,
                 autoscaler: Autoscaler | None = None,
                 locator: CriticalServiceLocator | None = None,
                 estimator_config: EstimatorConfig | None = None,
                 model_config: ScatterModelConfig | None = None,
                 config: FrameworkConfig | None = None,
                 obs: "obs_mod.Observability | None" = None) -> None:
        if not targets:
            raise ValueError("need at least one adaptation target")
        self.env = env
        self.app = app
        self.monitoring = monitoring
        self.targets = list(targets)
        self.sla = sla
        self.autoscaler = autoscaler
        self.obs = obs if obs is not None else obs_mod.NULL
        if autoscaler is not None and self.obs and \
                autoscaler.obs is obs_mod.NULL:
            # Share one observability scope across the whole loop so
            # scale events land in the same decision log.
            autoscaler.obs = self.obs
        self.config = config or FrameworkConfig()
        self.locator = locator or CriticalServiceLocator(
            exclude=("front-end",))
        self.propagator = (DeadlinePropagator(sla)
                           if sla is not None else None)
        self.actions: list[AdaptationAction] = []
        self.reports: list[LocalizationReport] = []
        self._thresholds: dict[str, float] = {
            target.name: (sla if sla is not None else float("inf"))
            for target in self.targets}
        self._desired: dict[str, int] = {
            target.name: target.allocation() for target in self.targets}
        # One observation arrives per control period, so the detectors
        # use a short warmup and a conservative threshold.
        self._drift_detectors: dict[str, PageHinkley] = {
            target.name: PageHinkley(delta=0.15, threshold=3.0,
                                     min_observations=4)
            for target in self.targets}
        #: ``(time, target)`` records of detected regime shifts.
        self.drift_detections: list[tuple[float, str]] = []

        self.estimator_config = estimator_config or EstimatorConfig()
        self.model = self._build_model(model_config)
        #: Per-target ``<concurrency, goodput>`` pairs, goodput measured
        #: against the target's current threshold.
        self.samplers = {target.name: ConcurrencyGoodputSampler(
            env, concurrency_integral=target.concurrency_integral,
            completion_source=target.completion_latencies,
            threshold_provider=lambda name=target.name:
                self._thresholds[name],
            interval=self.estimator_config.sampling_interval,
            name=target.name, obs=self.obs) for target in self.targets}
        if autoscaler is not None:
            autoscaler.on_scale(self._on_scale)
        self._started = False

    # ------------------------------------------------------------------
    # Model wiring (overridden by the two concrete frameworks)
    # ------------------------------------------------------------------
    def _build_model(self, model_config: ScatterModelConfig | None):
        return SCGModel(model_config)

    def threshold_for(self, target: SoftResourceTarget) -> float:
        """The current propagated threshold for ``target``."""
        return self._thresholds[target.name]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start monitoring, samplers, autoscaler, and the adapter
        loop (idempotent)."""
        if self._started:
            return
        self._started = True
        self.monitoring.start()
        for sampler in self.samplers.values():
            sampler.start()
        if self.autoscaler is not None:
            self.autoscaler.start()
        self.env.process(self._loop(), name=f"{self.model_name}-adapter")

    def _loop(self):
        while True:
            yield self.env.timeout(self.config.control_period)
            self.control()

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------
    def control(self) -> None:
        """One adapter iteration: localize, propagate, estimate, apply.

        With observability on, the round is self-traced under the
        recorder's shared phase names (one ``estimate.batch`` span nests
        under ``scg_estimation``) and its wall time is stamped on the
        round's decision record. The round ends by dropping samples
        older than twice the estimation window.
        """
        obs = self.obs
        obs.flight.begin_round()
        now = self.env.now
        with obs.phase("ingest"):
            since = now - self.config.localization_window
            traces = self.app.warehouse.traces(since, now)
            utilizations = self.monitoring.utilizations(
                self.config.localization_window)
        analytics = (self.app.warehouse.analytics
                     if self.config.localize_from_aggregates else None)
        with obs.phase("localization"):
            if analytics is not None:
                report = self.locator.locate_from_aggregate(
                    analytics, utilizations)
            else:
                report = self.locator.locate(traces, utilizations)
        self.reports.append(report)

        if self.propagator is not None and \
                self.config.use_deadline_propagation:
            with obs.phase("deadline_propagation"):
                for target in self.targets:
                    deadline = self.propagator.propagate(
                        traces, target.service.name)
                    self._thresholds[target.name] = deadline.threshold

        if self.config.detect_drift:
            self._check_drift()

        # Adapt the targets on the critical service (the paper's
        # behaviour), or all of them when none sits on it.
        critical = report.critical_service
        matched = [t for t in self.targets
                   if t.service.name == critical] or self.targets
        with obs.phase("scg_estimation"), obs.phase("estimate.batch"):
            decisions = self._adapt_round(matched)
        if obs:
            with obs.phase("decision"):
                thresholds = {t.name: self._thresholds[t.name]
                              for t in self.targets
                              if self._thresholds[t.name] != float("inf")}
                obs.registry.counter("controller.rounds").inc()
            wall_ms = obs.flight.record_round(
                round_index=len(self.reports), time=now,
                trigger="periodic", critical_service=critical,
                decisions=[decision.target for decision in decisions])
            obs.record(ControlRoundRecord(
                time=now, controller=self.model_name,
                trigger="periodic",
                critical_service=critical,
                dominant_path=report.dominant_path,
                correlations=dict(report.correlations),
                candidates=report.candidates,
                thresholds=thresholds,
                decisions=decisions,
                traces=len(traces),
                wall_ms=wall_ms))
        for sampler in self.samplers.values():
            sampler.prune(now - 2 * self.estimator_config.window)

    def _adapt_round(self, targets: _t.Sequence[SoftResourceTarget]
                     ) -> tuple[TargetDecision, ...]:
        """Decide ``targets`` over their estimation windows and apply
        the verdicts. SCG reads goodput pairs, SCT throughput pairs."""
        since = self.env.now - self.estimator_config.window
        decisions = policy.decide_round(
            self.model, [target.name for target in targets], "periodic",
            [self._desired[target.name] for target in targets],
            [self._thresholds[target.name] for target in targets],
            [self._processing_p90(target) for target in targets],
            [self.samplers[target.name].pairs(
                since=since, use_threshold=self.sla is not None)
             for target in targets],
            min_allocation=self.config.min_allocation,
            max_allocation=self.config.max_allocation,
            curve_points=self.obs.curve_points)
        for target, decision in zip(targets, decisions):
            if decision.outcome == "applied":
                self._apply(target, decision.after,
                            policy.action_method(decision), "periodic")
        return decisions

    def _processing_p90(self, target: SoftResourceTarget) -> float:
        """P90 of the target's post-admission processing times over its
        estimation window."""
        now = self.env.now
        return policy.p90(target.processing_latencies(
            now - self.estimator_config.window, now))

    def _check_drift(self) -> None:
        """Feed each target's recent mean processing time to its
        change detector; flush its sample window on detection."""
        since = self.env.now - self.config.control_period
        for target in self.targets:
            processing = target.processing_latencies(since, self.env.now)
            if processing.size == 0:
                continue
            detector = self._drift_detectors[target.name]
            change = detector.update(float(np.mean(processing)))
            if change is not None:
                self.drift_detections.append((self.env.now, target.name))
                self.samplers[target.name].prune(self.env.now)
                logger.info("t=%.1f drift detected on %s; sample "
                            "window flushed", self.env.now, target.name)
                if self.obs:
                    self.obs.record(DriftRecord(time=self.env.now,
                                                target=target.name))
                    self.obs.registry.counter(
                        "controller.drift_detections").inc()

    def _apply(self, target: SoftResourceTarget, per_replica: int,
               method: str, trigger: Trigger) -> None:
        before = self._desired[target.name]
        target.apply(per_replica)
        self._desired[target.name] = per_replica
        self.actions.append(AdaptationAction(
            time=self.env.now, target=target.name, before=before,
            after=per_replica, method=method, trigger=trigger,
            threshold=self._thresholds.get(target.name)))
        logger.info("t=%.1f %s: %s %d -> %d (%s, %s)", self.env.now,
                    self.model_name, target.name, before, per_replica,
                    method, trigger)
        if self.obs:
            self.obs.registry.counter("controller.adaptations").inc()
            self.obs.registry.histogram(
                "controller.allocation").observe(per_replica)
            # Step series: one point per change (the telemetry pump
            # fills in the regular samples between changes).
            self.obs.timeline.record(f"pool.{target.name}",
                                     self.env.now, float(per_replica))

    # ------------------------------------------------------------------
    # Hardware-scale coordination
    # ------------------------------------------------------------------
    def _on_scale(self, event: ScaleEvent) -> None:
        decisions: list[TargetDecision] = []
        for target in self.targets:
            if not self._affected(target, event):
                continue
            before = self._desired[target.name]
            if event.kind == "vertical" and event.before > 0:
                # Bootstrap proportionally to the capacity change, then
                # let the model refine on fresh samples.
                ratio = event.after / event.before
                bootstrap = max(1, math.ceil(
                    self._desired[target.name] * ratio))
                bootstrap = min(self.config.max_allocation, bootstrap)
                if bootstrap != self._desired[target.name]:
                    self._apply(target, bootstrap, "proportional",
                                "bootstrap")
                    decisions.append(policy.record(
                        target.name, "bootstrap", "applied",
                        "proportional", before, bootstrap,
                        self._thresholds[target.name]))
            elif event.kind == "horizontal":
                # Re-assert the per-replica allocation so shared client
                # pools track the new replica count (Fig. 12).
                self._apply(target, self._desired[target.name],
                            "replica-track", "scale-event")
                decisions.append(policy.record(
                    target.name, "scale-event", "applied",
                    "replica-track", before, self._desired[target.name],
                    self._thresholds[target.name]))
            # Samples gathered under the old hardware no longer
            # describe the capacity curve.
            self.samplers[target.name].prune(self.env.now)
        if self.obs and decisions:
            self.obs.record(ControlRoundRecord(
                time=self.env.now, controller=self.model_name,
                trigger="scale-event", decisions=tuple(decisions)))

    @staticmethod
    def _affected(target: SoftResourceTarget, event: ScaleEvent) -> bool:
        if target.service.name == event.service:
            return True
        if isinstance(target, ClientPoolTarget) and \
                target.owner.name == event.service:
            return True
        return False


class SoraController(ConcurrencyAdaptationFramework):
    """Sora: latency-sensitive adaptation via the SCG model with
    critical-service localization and deadline propagation (§4).

    ``sla`` is required — it anchors goodput measurement.
    """

    model_name = "scg"

    def __init__(self, env: Environment, app: Application,
                 monitoring: MonitoringModule,
                 targets: _t.Sequence[SoftResourceTarget], *,
                 sla: float, **kwargs) -> None:
        if sla is None or sla <= 0:
            raise ValueError(f"Sora requires a positive SLA, got {sla}")
        super().__init__(env, app, monitoring, targets, sla=sla, **kwargs)


class ConScaleController(ConcurrencyAdaptationFramework):
    """ConScale (IPDPS'20): throughput-centric adaptation via the SCT
    model; latency-agnostic by construction (§3.1, §5.2)."""

    model_name = "sct"

    def __init__(self, env: Environment, app: Application,
                 monitoring: MonitoringModule,
                 targets: _t.Sequence[SoftResourceTarget],
                 **kwargs) -> None:
        kwargs.pop("sla", None)
        super().__init__(env, app, monitoring, targets, sla=None, **kwargs)

    def _build_model(self, model_config: ScatterModelConfig | None):
        return SCTModel(model_config)
