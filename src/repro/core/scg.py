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
:meth:`ScatterCurveModel.estimate_many` quantizes and aggregates every
window of a control round in one pass, then runs the fit and Kneedle
steps in one vectorized pass per degree and per number of aggregated
levels (each window keeps its own levels);
:meth:`~ScatterCurveModel.estimate` is its one-window case.
"""

from __future__ import annotations

import logging
import os
import threading
import typing as _t
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.analysis.kneedle import KneeGrid, KneeResult
from repro.analysis.smoothing import (
    PolynomialFit,
    PolynomialFitter,
    aggregate_scatters,
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


#: Fewest windows per row block: a stack of fewer than twice this many
#: windows (one window, or a one-service round) runs serially on the
#: calling thread, and never starts the thread pool.
MIN_BLOCK_ROWS = 128

_pool: ThreadPoolExecutor | None = None
_pool_pid = 0
_pool_threads = 0
_pool_lock = threading.Lock()


def _worker_count() -> int:
    """The number of CPUs this process may run on (its affinity mask,
    so ``taskset`` confines estimation)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


def _executor(threads: int) -> ThreadPoolExecutor:
    """The module's estimation pool, with at least ``threads`` threads.

    Created on first use, and created afresh in a forked child: a
    parent's pool threads do not exist there.
    """
    global _pool, _pool_pid, _pool_threads
    with _pool_lock:
        if (_pool is None or _pool_pid != os.getpid()
                or _pool_threads < threads):
            # A replaced pool is not shut down: a caller on another
            # thread may still be submitting to it. Its idle threads
            # exit once it is unreferenced.
            _pool = ThreadPoolExecutor(threads,
                                       thread_name_prefix="repro-scg")
            _pool_pid, _pool_threads = os.getpid(), threads
        return _pool


_T = _t.TypeVar("_T")


def _run_blocks(search: _t.Callable[[np.ndarray, np.ndarray], list[_T]],
                blocks: list[tuple[np.ndarray, np.ndarray]]) -> list[_T]:
    """``search`` over every block, concatenated in block order.

    The calling thread runs the first block and the pool the others,
    all at once, each under the caller's floating-point error state.
    """
    if len(blocks) == 1:
        return search(*blocks[0])
    errors = np.geterr()

    def run(levels: np.ndarray, rates: np.ndarray) -> list[_T]:
        with np.errstate(**errors):
            return search(levels, rates)

    pool = _executor(len(blocks) - 1)
    futures = [pool.submit(run, *block) for block in blocks[1:]]
    results = search(*blocks[0])
    for future in futures:
        results += future.result()
    return results


class ScatterCurveModel:
    """Shared estimation machinery over ``<Q, rate>`` pairs."""

    #: Human-readable model name (subclasses override).
    name = "scatter-curve"

    def __init__(self, config: ScatterModelConfig | None = None) -> None:
        self.config = config or ScatterModelConfig()
        #: The most row blocks one stack of the last
        #: :meth:`estimate_many` call ran at once (1: serial).
        self.last_workers = 1

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

        All windows are quantized and aggregated in one pass over
        their concatenated samples; windows with the same number of
        aggregated levels are then stacked and share one fit and one
        Kneedle pass per degree, each over its own levels. A stack of
        at least ``2 * MIN_BLOCK_ROWS`` windows is cut into contiguous
        row blocks that run at once, one per CPU the process may run
        on. A window's estimate does not depend on the other windows in
        the call or on the blocks, bit for bit.

        Args:
            windows: ``(concurrency, rate)`` sample pairs per window.
            thresholds: the RT threshold active while each window was
                collected, stamped on its estimate (default: none).

        Returns:
            One entry per window, ``None`` where :meth:`estimate` would
            return ``None``: too few samples or levels, a NaN or
            infinite rate, or levels whose squared ``max_degree``-th
            powers overflow when summed.
        """
        if thresholds is None:
            thresholds = [None] * len(windows)
        if len(thresholds) != len(windows):
            raise ValueError(f"{len(thresholds)} thresholds for "
                             f"{len(windows)} windows")
        config = self.config
        count = len(windows)
        results: list[ConcurrencyEstimate | None] = [None] * count
        self.last_workers = 1
        if count == 0:
            return results
        concurrency_parts, rate_parts = [], []
        for concurrency, rate in windows:
            concurrency = np.asarray(concurrency, dtype=float)
            rate = np.asarray(rate, dtype=float)
            if concurrency.shape != rate.shape:
                raise ValueError(
                    f"shape mismatch: {concurrency.shape} vs {rate.shape}")
            concurrency_parts.append(concurrency.ravel())
            rate_parts.append(rate.ravel())
        samples = np.array([part.size for part in concurrency_parts])
        owner = np.repeat(np.arange(count), samples)
        concurrency = np.concatenate(concurrency_parts)
        rate = np.concatenate(rate_parts)
        # A NaN or infinite rate would turn its window's whole fit to
        # NaN; such a window gets no estimate.
        finite = np.bincount(owner, weights=~np.isfinite(rate),
                             minlength=count) == 0
        # Idle samples (zero concurrency) carry no information about
        # the service's capacity curve.
        busy = ((samples >= config.min_samples) & finite)[owner] & \
            (concurrency > 0)
        quantized = np.round(concurrency[busy] / config.quantum) * \
            config.quantum
        level_owner, all_levels, all_rates = aggregate_scatters(
            owner[busy], quantized, rate[busy])
        sizes = np.bincount(level_owner, minlength=count)
        offsets = np.cumsum(sizes) - sizes
        # The stacked fit scales each power column by its norm, the
        # square root of a sum of up to ``size`` level**(2 * degree)
        # terms. A window where that sum overflows at the top degree
        # would turn the column to inf or 0 and fail its whole stack;
        # it gets no estimate instead.
        top = np.zeros(count)
        levelled = sizes > 0
        top[levelled] = all_levels[offsets[levelled] + sizes[levelled] - 1]
        with np.errstate(over="ignore"):
            representable = np.isfinite(
                sizes * top ** (2 * config.max_degree))
        # A degree close to the number of aggregated levels
        # interpolates the noise instead of smoothing it (wild
        # oscillation between levels); keep at least one excess degree
        # of freedom.
        usable = ((sizes >= config.min_distinct) &
                  (np.minimum(config.max_degree, sizes - 2) >=
                   config.min_degree) & representable)
        workers = _worker_count()
        for size in np.unique(sizes[usable]):
            positions = np.flatnonzero(usable & (sizes == size))
            rows = offsets[positions, None] + np.arange(size)
            levels = all_levels[rows]
            rates = all_rates[rows]
            blocks = min(workers, -(-positions.size // MIN_BLOCK_ROWS))
            self.last_workers = max(self.last_workers, blocks)
            bounds = [positions.size * block // blocks
                      for block in range(blocks + 1)]
            searched = _run_blocks(self._search, [
                (levels[begin:end], rates[begin:end])
                for begin, end in zip(bounds, bounds[1:])])
            gp_variance = np.var(rates, axis=1).tolist()
            max_concurrency = levels[:, -1].tolist()
            for row, (position, outcome) in enumerate(
                    zip(positions.tolist(), searched)):
                if outcome is None:
                    continue
                method, optimal, knee, fit = outcome
                variance = gp_variance[row]
                if variance == 0.0:
                    fit_r2 = 1.0 if fit.rmse == 0.0 else 0.0
                else:
                    fit_r2 = 1.0 - (fit.rmse ** 2) / variance
                results[position] = ConcurrencyEstimate(
                    optimal_concurrency=optimal, method=method, knee=knee,
                    fit=fit, samples=int(samples[position]),
                    threshold=thresholds[position],
                    max_concurrency=max_concurrency[row], fit_r2=fit_r2)
        if logger.isEnabledFor(logging.DEBUG):
            for position, estimate in enumerate(results):
                if estimate is not None:
                    self._log(estimate, int(sizes[position]))
        return results

    def _log(self, estimate: ConcurrencyEstimate, levels: int) -> None:
        if estimate.method == "knee":
            logger.debug(
                "%s: knee at Q=%.2f (rate=%.2f) with degree-%d fit over "
                "%d levels", self.name, estimate.knee.knee_x,
                estimate.knee.knee_y, estimate.fit.degree, levels)
        else:
            logger.debug(
                "%s: no confirmed knee across degrees %d-%d; argmax "
                "fallback Q=%d", self.name, self.config.min_degree,
                estimate.fit.degree, estimate.optimal_concurrency)

    def _search(self, levels: np.ndarray, rates: np.ndarray
                ) -> list[tuple[EstimateMethod, int, KneeResult,
                                PolynomialFit] | None]:
        """Raise the polynomial degree over the rows of ``rates`` (mean
        rates at the ascending levels in the same row of ``levels``)
        until Kneedle accepts a knee; return ``(method, optimal, knee,
        fit)`` per row, ``None`` for a row left unestimated.

        A row leaves the search at the first degree whose knee passes
        the quality gate. Rows left after the highest degree fall back
        to the argmax of that degree's fit, reporting its knee.
        """
        config = self.config
        max_degree = min(config.max_degree, levels.shape[1] - 2)
        fitter = PolynomialFitter(levels, rates, max_degree)
        # Every degree's curves lie on the same dense grid.
        grid = KneeGrid(fitter.grid)
        outcomes: list[tuple[EstimateMethod, int, KneeResult,
                             PolynomialFit] | None] = [None] * rates.shape[0]
        active = np.arange(rates.shape[0])
        for degree in range(config.min_degree, max_degree + 1):
            # While every row is still searching, skip the row gathers.
            rows = None if active.size == rates.shape[0] else active
            fits = fitter.fit(degree, rows)
            knees = grid.knees(fits.y, rows,
                               sensitivity=config.sensitivity)
            accepted = (knees.found & (knees.knee_x > 0) &
                        (knees.knee_y >= config.knee_quality *
                         fits.y.max(axis=1)))
            chosen = np.flatnonzero(accepted)
            for row, knee, fit in zip(active[chosen].tolist(),
                                      knees.rows(chosen),
                                      fits.rows(chosen)):
                outcomes[row] = ("knee", max(1, int(round(knee.knee_x))),
                                 knee, fit)
            if degree == max_degree and config.allow_argmax_fallback:
                chosen = np.flatnonzero(~accepted)
                best = fits.x[chosen, np.argmax(fits.y[chosen], axis=1)]
                for row, optimal, knee, fit in zip(
                        active[chosen].tolist(), best.tolist(),
                        knees.rows(chosen), fits.rows(chosen)):
                    outcomes[row] = ("argmax",
                                     max(1, int(round(optimal))), knee, fit)
            # Free this degree's curves before fitting the next one.
            del fits, knees
            active = active[~accepted]
            if active.size == 0:
                break
        return outcomes


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
