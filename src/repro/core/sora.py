"""The Sora framework (paper §4) and the shared adaptation machinery.

Sora wires four pieces into a closed loop:

- **Monitoring Module** — utilization sampling + trace retention
  (:class:`~repro.core.monitoring.MonitoringModule`);
- **Concurrency Estimator** — per-target SCG estimation over a trailing
  window (:class:`~repro.core.estimator.ConcurrencyEstimator`);
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
from repro.core.deadline import DeadlinePropagator
from repro.core.estimator import ConcurrencyEstimator, EstimatorConfig
from repro.core.localization import (
    CriticalServiceLocator,
    LocalizationReport,
)
from repro.core.monitoring import MonitoringModule
from repro.core.scg import ConcurrencyEstimate, ScatterModelConfig, \
    SCGModel, SCTModel
from repro.core.targets import ClientPoolTarget, SoftResourceTarget
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
class FrameworkConfig:
    """Control-loop knobs shared by Sora and ConScale.

    Attributes:
        control_period: how often the adapter re-evaluates targets.
        localization_window: trace window for critical-service
            localization and deadline propagation.
        growth_factor: multiplicative exploration step used when the
            curve is still rising at the observed edge ("we gradually
            increase the allocation to find a new optimal value", §3.2).
        min_allocation / max_allocation: hard per-replica bounds on any
            recommendation.
        pressure_fraction: a *shrink* is applied only when the observed
            concurrency actually pressed the current allocation
            (``max_Q >= pressure_fraction * allocation``) — an idle pool
            yields degenerate knees that say nothing about capacity.
        max_shrink_factor: one adaptation step never shrinks below this
            fraction of the current allocation. Right after a regime
            change the window mixes old- and new-regime samples, so a
            single knee can wildly undershoot; stepping down bounds the
            overshoot while converging within a couple of periods.
        adapt_only_critical: adapt only targets on the critical service
            (the paper's behaviour); with a single registered target the
            distinction rarely matters because of the fallback: when no
            target matches the critical service, all targets adapt.
        use_deadline_propagation: when False, the goodput threshold
            stays pinned at the full end-to-end SLA instead of the
            propagated per-service deadline (ablation knob; §3.2 argues
            propagation is what keeps the threshold honest on deep
            critical paths).
        detect_drift: run a Page-Hinkley change detector on each
            target's per-period mean processing time; on detection the
            estimator's window is flushed so the model re-learns the
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
    growth_factor: float = 1.5
    min_allocation: int = 2
    max_allocation: int = 512
    pressure_fraction: float = 0.6
    max_shrink_factor: float = 0.25
    adapt_only_critical: bool = True
    use_deadline_propagation: bool = True
    detect_drift: bool = False
    localize_from_aggregates: bool = False

    def __post_init__(self) -> None:
        if self.control_period <= 0 or self.localization_window <= 0:
            raise ValueError("periods must be positive")
        if self.growth_factor <= 1.0:
            raise ValueError(
                f"growth_factor must exceed 1, got {self.growth_factor}")
        if not 1 <= self.min_allocation <= self.max_allocation:
            raise ValueError(
                f"need 1 <= min_allocation <= max_allocation, got "
                f"[{self.min_allocation}, {self.max_allocation}]")
        if not 0.0 <= self.pressure_fraction <= 1.0:
            raise ValueError(
                f"pressure_fraction must be in [0, 1], got "
                f"{self.pressure_fraction}")
        if not 0.0 < self.max_shrink_factor <= 1.0:
            raise ValueError(
                f"max_shrink_factor must be in (0, 1], got "
                f"{self.max_shrink_factor}")


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

        self.estimators: dict[str, ConcurrencyEstimator] = {}
        for target in self.targets:
            model = self._build_model(model_config)
            provider = self._threshold_provider(target.name) \
                if sla is not None else None
            self.estimators[target.name] = ConcurrencyEstimator(
                env, target, model, provider, config=estimator_config,
                obs=self.obs)
        if autoscaler is not None:
            autoscaler.on_scale(self._on_scale)
        self._started = False

    # ------------------------------------------------------------------
    # Model wiring (overridden by the two concrete frameworks)
    # ------------------------------------------------------------------
    def _build_model(self, model_config: ScatterModelConfig | None):
        return SCGModel(model_config)

    def _threshold_provider(self, target_name: str
                            ) -> _t.Callable[[], float]:
        def provider() -> float:
            return self._thresholds[target_name]
        return provider

    def threshold_for(self, target: SoftResourceTarget) -> float:
        """The current propagated threshold for ``target``."""
        return self._thresholds[target.name]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start monitoring, estimators, autoscaler, and the adapter
        loop (idempotent)."""
        if self._started:
            return
        self._started = True
        self.monitoring.start()
        for estimator in self.estimators.values():
            estimator.start()
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
        recorder's shared phase names (``estimate.<target>`` spans nest
        under ``scg_estimation``) and its wall time is stamped on the
        round's decision record.
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

        critical = report.critical_service
        matched = [t for t in self.targets
                   if t.service.name == critical]
        if not self.config.adapt_only_critical or critical is None \
                or not matched:
            matched = self.targets
        with obs.phase("scg_estimation"):
            decisions = tuple(self._adapt(target, trigger="periodic")
                              for target in matched)
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

    def _decision(self, target: SoftResourceTarget, trigger: Trigger,
                  outcome: str, reason: str, before: int, after: int,
                  estimate: ConcurrencyEstimate | None = None,
                  growth_can_help: bool | None = None
                  ) -> TargetDecision:
        """Assemble the typed audit record for one verdict."""
        threshold = self._thresholds.get(target.name)
        if threshold == float("inf"):
            threshold = None
        knee_q = knee_rate = degree = samples = max_q = method = None
        fit_r2 = prominence = None
        curve = None
        if estimate is not None:
            method = estimate.method
            degree = estimate.fit.degree
            samples = estimate.samples
            max_q = estimate.max_concurrency
            if estimate.fit_r2 == estimate.fit_r2:
                fit_r2 = round(float(estimate.fit_r2), 4)
            if estimate.knee.found:
                knee_q = float(estimate.knee.knee_x)
                knee_rate = float(estimate.knee.knee_y)
                if estimate.knee.prominence == estimate.knee.prominence:
                    prominence = round(float(estimate.knee.prominence), 4)
            points = self.obs.curve_points
            if outcome == "applied" and points > 0:
                stride = max(1, len(estimate.fit.x) // points)
                curve = tuple(
                    (round(float(q), 3), round(float(r), 3))
                    for q, r in zip(estimate.fit.x[::stride],
                                    estimate.fit.y[::stride]))
        return TargetDecision(
            target=target.name, trigger=trigger,
            outcome=_t.cast(_t.Any, outcome), reason=reason,
            before=before, after=after, threshold=threshold,
            method=method, knee_concurrency=knee_q,
            knee_rate=knee_rate, poly_degree=degree, samples=samples,
            max_concurrency=max_q, growth_can_help=growth_can_help,
            fit_r2=fit_r2, knee_prominence=prominence, curve=curve)

    def _adapt(self, target: SoftResourceTarget,
               trigger: Trigger) -> TargetDecision:
        """One target's evaluation; returns the audit-trail decision."""
        estimator = self.estimators[target.name]
        current = self._desired[target.name]

        # A pool that spends most of the window pinned at its allocation
        # censors the concurrency range, so any knee found inside it is
        # unreliable. Steer by where the latency lives instead: healthy
        # post-admission processing means the gate itself is the
        # bottleneck — explore upward ("gradually increase the
        # allocation to find a new optimal value", §3.2); processing
        # past the threshold means over-admission is melting the
        # service — step the allocation down.
        if self._saturated(estimator, current):
            can_grow = self._growth_can_help(target, estimator)
            if can_grow:
                new = min(self.config.max_allocation,
                          max(current + 1, math.ceil(
                              current * self.config.growth_factor)))
                if new != current:
                    self._apply(target, new, "saturation", trigger)
                    return self._decision(
                        target, trigger, "applied", "saturation-grow",
                        current, new, growth_can_help=True)
                return self._decision(
                    target, trigger, "hold", "saturation-capped",
                    current, current, growth_can_help=True)
            new = max(self.config.min_allocation, math.ceil(
                current * self.config.max_shrink_factor))
            if new != current:
                self._apply(target, new, "overload-shed", trigger)
                return self._decision(
                    target, trigger, "applied", "overload-shed",
                    current, new, growth_can_help=False)
            return self._decision(
                target, trigger, "hold", "overload-floor",
                current, current, growth_can_help=False)

        estimate = estimator.estimate_now()
        if estimate is None:
            return self._decision(target, trigger, "hold",
                                  "no-estimate", current, current)
        recommendation = estimate.optimal_concurrency
        max_q = estimate.max_concurrency
        at_edge = max_q > 0 and recommendation >= 0.9 * max_q
        reason = estimate.method
        if at_edge:
            # The curve's interesting point sits at the edge of the
            # observed concurrency range: censored data. If the pool
            # itself was the ceiling — and removing it could actually
            # cut latency — the true optimum lies beyond it: gradually
            # explore upward (§3.2). If demand never filled the pool,
            # the window proves nothing — hold.
            if max_q < 0.9 * current:
                return self._decision(target, trigger, "hold",
                                      "edge-unpressed-hold", current,
                                      current, estimate=estimate)
            if self._growth_can_help(target, estimator):
                new = max(current + 1,
                          math.ceil(current * self.config.growth_factor))
                reason = "edge-grow"
            else:
                new = math.ceil(current * self.config.max_shrink_factor)
                reason = "edge-shrink"
        else:
            new = recommendation
        if new < current:
            new = max(new, math.ceil(
                current * self.config.max_shrink_factor))
        new = max(self.config.min_allocation,
                  min(self.config.max_allocation, new))
        if new < current and estimate.max_concurrency < \
                self.config.pressure_fraction * current:
            # The pool never filled in this window: the data cannot
            # justify shrinking it (idle pools look like early knees).
            return self._decision(target, trigger, "hold", "idle-hold",
                                  current, current, estimate=estimate)
        if new == current:
            return self._decision(target, trigger, "hold", "unchanged",
                                  current, current, estimate=estimate)
        self._apply(target, new, estimate.method, trigger)
        return self._decision(target, trigger, "applied", reason,
                              current, new, estimate=estimate)

    def _check_drift(self) -> None:
        """Feed each target's recent mean processing time to its
        change detector; flush the estimator window on detection."""
        since = self.env.now - self.config.control_period
        for target in self.targets:
            processing = target.processing_latencies(since, self.env.now)
            if processing.size == 0:
                continue
            detector = self._drift_detectors[target.name]
            change = detector.update(float(np.mean(processing)))
            if change is not None:
                self.drift_detections.append((self.env.now, target.name))
                self.estimators[target.name].sampler.prune(self.env.now)
                logger.info("t=%.1f drift detected on %s; estimator "
                            "window flushed", self.env.now, target.name)
                if self.obs:
                    self.obs.record(DriftRecord(time=self.env.now,
                                                target=target.name))
                    self.obs.registry.counter(
                        "controller.drift_detections").inc()

    def _saturated(self, estimator, current: int) -> bool:
        """Whether the pool spent most of the recent window pinned at
        its allocation (growth signal when the model has no estimate)."""
        since = self.env.now - estimator.config.window
        concurrency, _rates = estimator.sampler.pairs(since=since)
        busy = concurrency[concurrency > 0]
        if busy.size < estimator.model.config.min_samples // 2:
            return False
        pinned = (busy >= 0.9 * current).mean()
        return bool(pinned >= 0.5)

    def _growth_can_help(self, target: SoftResourceTarget,
                         estimator: ConcurrencyEstimator) -> bool:
        """Whether more tokens could actually reduce latency.

        Growth only removes *admission-queue* waiting. If the gated
        service's post-admission processing time already blows the
        threshold (a melted downstream, a saturated CPU), admitting more
        concurrency makes things worse — hold instead.
        """
        threshold = self._thresholds[target.name]
        if threshold == float("inf"):
            return True  # latency-agnostic mode (SCT) always explores
        since = self.env.now - estimator.config.window
        processing = target.processing_latencies(since, self.env.now)
        if processing.size == 0:
            return False
        return bool(np.percentile(processing, 90) <= threshold)

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
            estimator = self.estimators[target.name]
            before = self._desired[target.name]
            if event.kind == "vertical" and event.before > 0:
                # Bootstrap proportionally to the capacity change, then
                # let the estimator refine on fresh samples.
                ratio = event.after / event.before
                bootstrap = max(1, math.ceil(
                    self._desired[target.name] * ratio))
                bootstrap = min(self.config.max_allocation, bootstrap)
                if bootstrap != self._desired[target.name]:
                    self._apply(target, bootstrap, "proportional",
                                "bootstrap")
                    decisions.append(self._decision(
                        target, "bootstrap", "applied", "proportional",
                        before, bootstrap))
            elif event.kind == "horizontal":
                # Re-assert the per-replica allocation so shared client
                # pools track the new replica count (Fig. 12).
                self._apply(target, self._desired[target.name],
                            "replica-track", "scale-event")
                decisions.append(self._decision(
                    target, "scale-event", "applied", "replica-track",
                    before, self._desired[target.name]))
            # Samples gathered under the old hardware no longer
            # describe the capacity curve.
            estimator.sampler.prune(self.env.now)
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
