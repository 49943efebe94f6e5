"""The Scatter-Concurrency-Goodput (SCG) model (paper §3) and its
throughput-based counterpart SCT (ConScale's model, §3.1).

Both models consume ``<concurrency, rate>`` sample pairs collected at a
fine granularity over a short window and estimate the optimal
concurrency as the knee of the main sequence curve:

- **SCG** pairs concurrency with *goodput* under a (propagated)
  response-time threshold — latency sensitive;
- **SCT** pairs concurrency with *throughput* — latency agnostic.

Estimation pipeline (phases 3–4 of Fig. 6): aggregate the scatter (mean
rate per distinct concurrency), fit a smoothing polynomial whose degree
is tuned incrementally (§3.3), and run Kneedle on the smooth curve.
:meth:`ScatterCurveModel.estimate_many` runs the fit and Kneedle steps
for every window of a control round in one vectorized pass per degree
and per number of aggregated levels (each window keeps its own
levels); :meth:`~ScatterCurveModel.estimate` is its one-window case.
"""

from __future__ import annotations

import logging
import typing as _t
from dataclasses import dataclass

import numpy as np

from repro.analysis.kneedle import KneeResult, find_knees
from repro.analysis.smoothing import (
    PolynomialFit,
    PolynomialFitter,
    aggregate_scatter,
)

logger = logging.getLogger(__name__)

EstimateMethod = _t.Literal["knee", "argmax"]

#: One estimation window: ``(concurrency, rate)`` sample arrays.
Window = tuple[_t.Union[np.ndarray, _t.Sequence[float]],
               _t.Union[np.ndarray, _t.Sequence[float]]]


@dataclass(frozen=True)
class ScatterModelConfig:
    """Tuning knobs shared by SCG and SCT.

    Attributes:
        min_degree / max_degree: polynomial degree search range (the
            paper finds 5–8 adequate; too low misses the knee, too high
            overfits noise).
        sensitivity: Kneedle ``S`` parameter.
        min_samples: minimum number of raw pairs to attempt estimation.
        min_distinct: minimum number of distinct concurrency levels.
        quantum: interval-mean concurrency values are rounded to this
            grid before per-level averaging, so scatter aggregation has
            levels to aggregate over.
        knee_quality: a knee is accepted only if the smoothed rate at
            the knee reaches this fraction of the curve's maximum — a
            "knee" the curve keeps climbing past is a fitting artifact,
            not a capacity knee.
        allow_argmax_fallback: when no knee is confirmed, fall back to
            the concurrency with the maximum smoothed rate.
    """

    min_degree: int = 4
    max_degree: int = 8
    sensitivity: float = 1.0
    min_samples: int = 40
    min_distinct: int = 6
    quantum: float = 0.5
    knee_quality: float = 0.85
    allow_argmax_fallback: bool = True

    def __post_init__(self) -> None:
        if self.min_degree < 1 or self.max_degree < self.min_degree:
            raise ValueError(
                f"invalid degree range [{self.min_degree}, "
                f"{self.max_degree}]")
        if self.min_samples < 1 or self.min_distinct < 3:
            raise ValueError("min_samples >= 1 and min_distinct >= 3 "
                             "required")
        if self.quantum <= 0:
            raise ValueError(f"quantum must be positive, got {self.quantum}")
        if not 0.0 <= self.knee_quality <= 1.0:
            raise ValueError(
                f"knee_quality must be in [0, 1], got {self.knee_quality}")


@dataclass(frozen=True)
class ConcurrencyEstimate:
    """A recommended optimal concurrency setting.

    Attributes:
        optimal_concurrency: the recommendation (>= 1).
        method: how it was obtained ("knee" or "argmax" fallback).
        knee: the Kneedle result (may be not-found for argmax).
        fit: the accepted polynomial fit.
        samples: number of raw pairs used.
        threshold: RT threshold active during collection (None for SCT).
        max_concurrency: highest concurrency observed in the window —
            recommendations are only evidenced up to this level.
        fit_r2: coefficient of determination of the accepted fit over
            the aggregated scatter (1.0 = the polynomial explains all
            per-level variation; low values flag noisy windows whose
            knees deserve less trust).
    """

    optimal_concurrency: int
    method: EstimateMethod
    knee: KneeResult
    fit: PolynomialFit
    samples: int
    threshold: float | None = None
    max_concurrency: float = 0.0
    fit_r2: float = float("nan")


class ScatterCurveModel:
    """Shared estimation machinery over ``<Q, rate>`` pairs."""

    #: Human-readable model name (subclasses override).
    name = "scatter-curve"

    def __init__(self, config: ScatterModelConfig | None = None) -> None:
        self.config = config or ScatterModelConfig()

    def estimate(self, concurrency: np.ndarray, rate: np.ndarray,
                 threshold: float | None = None
                 ) -> ConcurrencyEstimate | None:
        """Estimate the optimal concurrency from sample pairs: the
        one-window case of :meth:`estimate_many`.

        Returns ``None`` when the window does not hold enough signal
        (too few samples or distinct concurrency levels, or no usable
        curve) — callers keep the previous allocation in that case.
        """
        return self.estimate_many([(concurrency, rate)], [threshold])[0]

    def estimate_many(self, windows: _t.Sequence[Window],
                      thresholds: _t.Sequence[float | None] | None = None
                      ) -> list[ConcurrencyEstimate | None]:
        """Estimate the optimal concurrency of every window.

        Each window is quantized and aggregated on its own; windows
        with the same number of aggregated levels are then stacked and
        share one fit and one Kneedle pass per degree, each over its
        own levels. A window's estimate does not depend on the other
        windows in the call, bit for bit.

        Args:
            windows: ``(concurrency, rate)`` sample pairs per window.
            thresholds: the RT threshold active while each window was
                collected, stamped on its estimate (default: none).

        Returns:
            One entry per window, ``None`` where :meth:`estimate` would
            return ``None``.
        """
        if thresholds is None:
            thresholds = [None] * len(windows)
        if len(thresholds) != len(windows):
            raise ValueError(f"{len(thresholds)} thresholds for "
                             f"{len(windows)} windows")
        config = self.config
        results: list[ConcurrencyEstimate | None] = [None] * len(windows)
        #: level count -> (window indices, levels, per-level rates)
        groups: dict[int, tuple[list[int], list[np.ndarray],
                                list[np.ndarray]]] = {}
        samples = [0] * len(windows)
        for position, (concurrency, rate) in enumerate(windows):
            concurrency = np.asarray(concurrency, dtype=float)
            rate = np.asarray(rate, dtype=float)
            if concurrency.shape != rate.shape:
                raise ValueError(
                    f"shape mismatch: {concurrency.shape} vs {rate.shape}")
            samples[position] = int(concurrency.size)
            if concurrency.size < config.min_samples:
                continue
            # Idle samples (zero concurrency) carry no information about
            # the service's capacity curve.
            busy = concurrency > 0
            quantized = np.round(concurrency[busy] / config.quantum) * \
                config.quantum
            q_values, gp_values = aggregate_scatter(quantized, rate[busy])
            # A degree close to the number of aggregated levels
            # interpolates the noise instead of smoothing it (wild
            # oscillation between levels); keep at least one excess
            # degree of freedom.
            if q_values.size < config.min_distinct or \
                    min(config.max_degree, q_values.size - 2) < \
                    config.min_degree:
                continue
            group = groups.setdefault(q_values.size, ([], [], []))
            group[0].append(position)
            group[1].append(q_values)
            group[2].append(gp_values)
        for positions, level_rows, rate_rows in groups.values():
            levels = np.stack(level_rows)
            rates = np.stack(rate_rows)
            gp_variance = np.var(rates, axis=1)
            for row, method, optimal, knee, fit in self._search(
                    levels, rates):
                position = positions[row]
                variance = float(gp_variance[row])
                if variance == 0.0:
                    fit_r2 = 1.0 if fit.rmse == 0.0 else 0.0
                else:
                    fit_r2 = 1.0 - (fit.rmse ** 2) / variance
                results[position] = ConcurrencyEstimate(
                    optimal_concurrency=optimal, method=method, knee=knee,
                    fit=fit, samples=samples[position],
                    threshold=thresholds[position],
                    max_concurrency=float(levels[row, -1]),
                    fit_r2=fit_r2)
        return results

    def _search(self, levels: np.ndarray, rates: np.ndarray
                ) -> _t.Iterator[tuple[int, EstimateMethod, int,
                                       KneeResult, PolynomialFit]]:
        """Raise the polynomial degree over the rows of ``rates`` (mean
        rates at the ascending levels in the same row of ``levels``)
        until Kneedle accepts a knee; yield ``(row, method, optimal,
        knee, fit)`` per row estimated.

        A row leaves the search at the first degree whose knee passes
        the quality gate. Rows left after the highest degree fall back
        to the argmax of that degree's fit, reporting its knee.
        """
        config = self.config
        max_degree = min(config.max_degree, levels.shape[1] - 2)
        fitter = PolynomialFitter(levels, rates, max_degree)
        active = np.arange(rates.shape[0])
        for degree in range(config.min_degree, max_degree + 1):
            fits = fitter.fit(degree, active)
            knees = find_knees(fits.x, fits.y,
                               sensitivity=config.sensitivity)
            accepted = (knees.found & (knees.knee_x > 0) &
                        (knees.knee_y >= config.knee_quality *
                         fits.y.max(axis=1)))
            for index in np.flatnonzero(accepted):
                knee = knees.row(index)
                logger.debug(
                    "%s: knee at Q=%.2f (rate=%.2f) with degree-%d fit "
                    "over %d levels", self.name, knee.knee_x, knee.knee_y,
                    degree, levels.shape[1])
                yield (int(active[index]), "knee",
                       max(1, int(round(knee.knee_x))), knee,
                       fits.row(index))
            if degree == max_degree and config.allow_argmax_fallback:
                best = fits.x[np.arange(active.size),
                              np.argmax(fits.y, axis=1)]
                for index in np.flatnonzero(~accepted):
                    optimal = max(1, int(round(float(best[index]))))
                    logger.debug(
                        "%s: no confirmed knee across degrees %d-%d; "
                        "argmax fallback Q=%d", self.name,
                        config.min_degree, max_degree, optimal)
                    yield (int(active[index]), "argmax", optimal,
                           knees.row(index), fits.row(index))
            # Free this degree's curves before fitting the next one.
            del fits, knees
            active = active[~accepted]
            if active.size == 0:
                return


class SCGModel(ScatterCurveModel):
    """Scatter-Concurrency-**Goodput** model — Sora's estimator.

    Pair concurrency samples with goodput measured under the propagated
    response-time threshold, then hand the pairs to :meth:`estimate`.
    """

    name = "scg"


class SCTModel(ScatterCurveModel):
    """Scatter-Concurrency-**Throughput** model — ConScale's estimator.

    Identical machinery; callers feed throughput pairs (no threshold),
    making the model latency agnostic by construction.
    """

    name = "sct"

    def estimate_many(self, windows: _t.Sequence[Window],
                      thresholds: _t.Sequence[float | None] | None = None
                      ) -> list[ConcurrencyEstimate | None]:
        if thresholds is not None and any(threshold is not None
                                          for threshold in thresholds):
            raise ValueError(
                "SCT is latency-agnostic; do not pass a threshold")
        return super().estimate_many(windows)
