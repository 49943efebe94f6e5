"""Concurrency Estimator (paper §4.1).

Continuously samples ``<concurrency, goodput>`` pairs for a target soft
resource (Metrics Collection phase) and periodically re-runs the
SCG/SCT model over the trailing window (Estimation phase), caching the
latest recommendation for the Reallocation Module to query.
"""

from __future__ import annotations

import logging
import typing as _t
from dataclasses import dataclass

import repro.obs as obs_mod
from repro.core.scg import ConcurrencyEstimate, ScatterCurveModel
from repro.core.targets import SoftResourceTarget
from repro.metrics.sampler import ConcurrencyGoodputSampler
from repro.sim.engine import Environment

logger = logging.getLogger(__name__)


@dataclass
class EstimatorConfig:
    """Estimator timing knobs (paper defaults).

    Attributes:
        sampling_interval: pair granularity — 100 ms gives the best
            MAPE in Table 1.
        window: trailing window the model sees — 60 s accumulates ~600
            points (§4.1).
        update_period: how often the cached estimate refreshes.
    """

    sampling_interval: float = 0.1
    window: float = 60.0
    update_period: float = 15.0

    def __post_init__(self) -> None:
        if self.sampling_interval <= 0 or self.window <= 0 or \
                self.update_period <= 0:
            raise ValueError("all estimator periods must be positive")
        if self.window < self.sampling_interval:
            raise ValueError("window shorter than sampling interval")


@dataclass
class EstimateRecord:
    """History entry: when an estimate was produced and what it said."""

    time: float
    estimate: ConcurrencyEstimate


class ConcurrencyEstimator:
    """Online estimator bound to one soft-resource target.

    Args:
        env: simulation environment.
        target: the adapted soft resource.
        model: SCG (goodput) or SCT (throughput) model instance.
        threshold_provider: callable returning the current propagated RT
            threshold in seconds (ignored by SCT: pass ``None`` to use
            throughput pairs).
        config: timing knobs.
        obs: observability scope (phase timings + estimate counters);
            defaults to the disabled :data:`repro.obs.NULL`.
    """

    def __init__(self, env: Environment, target: SoftResourceTarget,
                 model: ScatterCurveModel,
                 threshold_provider: _t.Callable[[], float] | None,
                 config: EstimatorConfig | None = None,
                 obs: "obs_mod.Observability | None" = None) -> None:
        self.env = env
        self.target = target
        self.model = model
        self.config = config or EstimatorConfig()
        self.threshold_provider = threshold_provider
        self.obs = obs if obs is not None else obs_mod.NULL
        self._uses_goodput = threshold_provider is not None
        self.sampler = ConcurrencyGoodputSampler(
            env,
            concurrency_integral=target.concurrency_integral,
            completion_source=target.completion_latencies,
            threshold_provider=(threshold_provider or
                                (lambda: float("inf"))),
            interval=self.config.sampling_interval,
            name=target.name,
            obs=self.obs,
        )
        self.latest: ConcurrencyEstimate | None = None
        self.history: list[EstimateRecord] = []
        self._started = False

    def start(self) -> None:
        """Begin sampling and periodic estimation (idempotent)."""
        if self._started:
            return
        self._started = True
        self.sampler.start()
        self.env.process(self._loop(), name=f"estimator:{self.target.name}")

    def estimate_now(self) -> ConcurrencyEstimate | None:
        """Run the model over the trailing window immediately."""
        since = self.env.now - self.config.window
        concurrency, rate = self.sampler.pairs(
            since=since, use_threshold=self._uses_goodput)
        threshold = (self.threshold_provider()
                     if self._uses_goodput else None)
        with self.obs.phase(f"estimate.{self.target.name}"):
            if self._uses_goodput:
                estimate = self.model.estimate(concurrency, rate,
                                               threshold=threshold)
            else:
                estimate = self.model.estimate(concurrency, rate)
        if estimate is not None:
            self.latest = estimate
            self.history.append(EstimateRecord(self.env.now, estimate))
            if self.obs:
                self.obs.registry.counter(
                    f"estimator.{estimate.method}").inc()
        else:
            logger.debug(
                "t=%.1f %s: no estimate (%d pairs in window; need "
                "signal over >= %d samples / %d distinct levels)",
                self.env.now, self.target.name, concurrency.size,
                self.model.config.min_samples,
                self.model.config.min_distinct)
            if self.obs:
                self.obs.registry.counter("estimator.no_estimate").inc()
        return estimate

    def recommendation(self) -> int | None:
        """The cached per-replica optimal concurrency, if any."""
        return (self.latest.optimal_concurrency
                if self.latest is not None else None)

    def _loop(self):
        while True:
            yield self.env.timeout(self.config.update_period)
            self.estimate_now()
            self.sampler.prune(self.env.now - 2 * self.config.window)
