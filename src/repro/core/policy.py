"""The Concurrency Adapter's per-target policy (paper §3.2, §4).

A pure, clock-free decision core: one round's per-target columns in,
:class:`~repro.obs.events.TargetDecision` records and new allocations
out, below the global localization and propagation (Autothrottle's
bi-level split, PAPERS.md). The embedded
:class:`~repro.core.sora.ConcurrencyAdaptationFramework` and the
service's :class:`~repro.service.control.ControlPlane` are thin
adapters: each builds the columns and windows, calls
:func:`decide_round` (which estimates only the rows :func:`saturated`
leaves open, in one batch, then calls :func:`decide`) and applies the
verdicts.

The rules, in order:

1. **Saturation.** A pool pinned at its allocation censors the
   concurrency range, so a knee inside it is unreliable. Grow when
   growth can help ("gradually increase the allocation to find a new
   optimal value", §3.2), else the service is melting downstream: shed.
2. **No estimate.** Hold.
3. **Edge.** An estimate at the top of the observed range is censored
   data: hold when demand never pressed the pool, else grow when growth
   can help and shrink when it cannot.
4. **Knee / argmax.** Apply the estimate, but shrink at most to
   :data:`MAX_SHRINK_FACTOR` of the pool in one step, and never shrink a
   pool whose window peaked under :data:`PRESSURE_FRACTION` of it (idle
   pools look like early knees).
"""

from __future__ import annotations

import typing as _t

import numpy as np

from repro.core.scg import ConcurrencyEstimate, ScatterCurveModel, Window
from repro.obs.events import TargetDecision

#: Multiplicative exploration step.
GROWTH_FACTOR = 1.5
#: A shrink needs the window's peak concurrency at this share of the pool.
PRESSURE_FRACTION = 0.6
#: One step never shrinks below this share of the pool: right after a
#: regime change the window mixes two regimes, so a knee can undershoot.
MAX_SHRINK_FACTOR = 0.25
#: Share of the pool at which a sample is pinned, and share of the
#: window's peak at which an estimate sits at the edge of the evidence.
EDGE_FRACTION = 0.9

#: Every reason a control round's decision can carry.
ROUND_REASONS = (
    "knee", "argmax", "saturation-grow", "saturation-capped",
    "overload-shed", "overload-floor", "edge-unpressed-hold",
    "edge-grow", "edge-shrink", "idle-hold", "unchanged", "no-estimate")
#: ... plus the embedded controller's reactions to hardware scaling.
REASONS = ROUND_REASONS + ("proportional", "replica-track")


def saturated(current, windows: _t.Sequence[np.ndarray],
              min_samples: int) -> np.ndarray:
    """Which pools spent most of their window pinned: at least half of
    at least ``min_samples // 2`` busy samples (concurrency above zero)
    reach :data:`EDGE_FRACTION` of the pool."""
    sizes = [len(window) for window in windows]
    if not sum(sizes):
        return np.zeros(len(sizes), dtype=bool)
    owner = np.repeat(np.arange(len(sizes)), sizes)
    concurrency = np.concatenate(windows)
    busy = concurrency > 0
    pinned = busy & (concurrency >=
                     EDGE_FRACTION * np.asarray(current)[owner])
    busy_count = np.bincount(owner[busy], minlength=len(sizes))
    pinned_count = np.bincount(owner[pinned], minlength=len(sizes))
    return ((busy_count > 0) & (busy_count >= min_samples // 2)
            & (pinned_count >= 0.5 * busy_count))


def p90(processing: _t.Sequence[float] | np.ndarray) -> float:
    """The processing-P90 column entry of one target's samples (NaN
    without samples)."""
    if len(processing) == 0:
        return float("nan")
    return float(np.percentile(processing, 90))


def can_grow(thresholds, processing_p90):
    """The §3.2 growth gate, on scalars or columns: more tokens only cut
    admission-queue waiting, so growth helps while post-admission
    processing P90 stays within the threshold (a NaN P90 is no
    evidence), and always in latency-agnostic mode (``inf``)."""
    thresholds = np.asarray(thresholds, dtype=float)
    return (thresholds == np.inf) | (
        np.asarray(processing_p90, dtype=float) <= thresholds)


def record(target: str, trigger: str, outcome: str, reason: str,
           before: int, after: int, threshold: float | None,
           estimate: ConcurrencyEstimate | None = None,
           growth_can_help: bool | None = None,
           curve_points: int = 0) -> TargetDecision:
    """The audit record of one verdict. An infinite threshold records
    as ``None``; an applied estimate keeps ``curve_points`` points of
    its fitted curve."""
    if threshold == float("inf"):
        threshold = None
    knee_q = knee_rate = degree = samples = max_q = method = None
    fit_r2 = prominence = curve = None
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
        if outcome == "applied" and curve_points > 0:
            stride = max(1, len(estimate.fit.x) // curve_points)
            curve = tuple(
                (round(float(q), 3), round(float(r), 3))
                for q, r in zip(estimate.fit.x[::stride],
                                estimate.fit.y[::stride]))
    return TargetDecision(
        target=target, trigger=trigger,
        outcome=_t.cast(_t.Any, outcome), reason=reason,
        before=before, after=after, threshold=threshold,
        method=method, knee_concurrency=knee_q,
        knee_rate=knee_rate, poly_degree=degree, samples=samples,
        max_concurrency=max_q, growth_can_help=growth_can_help,
        fit_r2=fit_r2, knee_prominence=prominence, curve=curve)


def decide(targets: _t.Sequence[str], trigger: str, current,
           thresholds, processing_p90, settled,
           estimates: _t.Sequence[ConcurrencyEstimate | None], *,
           min_allocation: int, max_allocation: int,
           curve_points: int = 0) -> tuple[TargetDecision, ...]:
    """One verdict per target, in order; an ``"applied"`` verdict's
    ``after`` is the new allocation. The columns: the pool in force, the
    propagated threshold (``inf`` for SCT), the processing P90 (NaN
    without samples), the :func:`saturated` mask (whose rows' estimates
    are ignored) and the estimate (``None`` when none was made)."""
    current = np.asarray(current, dtype=np.int64)
    settled = np.asarray(settled, dtype=bool)
    estimated = ~settled & np.array(
        [estimate is not None for estimate in estimates], dtype=bool)
    recommended = np.array(
        [e.optimal_concurrency if e is not None else 0 for e in estimates],
        dtype=np.int64)
    peak = np.array(
        [e.max_concurrency if e is not None else 0.0 for e in estimates],
        dtype=float)
    grow = can_grow(thresholds, processing_p90)
    grown = np.maximum(current + 1,
                       np.ceil(current * GROWTH_FACTOR).astype(np.int64))
    shrunk = np.ceil(current * MAX_SHRINK_FACTOR).astype(np.int64)

    edge = (peak > 0) & (recommended >= EDGE_FRACTION * peak)
    unpressed = edge & (peak < EDGE_FRACTION * current)
    new = np.where(edge, np.where(grow, grown, shrunk), recommended)
    # ``shrunk <= current``, so this bounds only the shrinks.
    new = np.clip(np.maximum(new, shrunk), min_allocation, max_allocation)
    idle = (new < current) & (peak < PRESSURE_FRACTION * current)
    after = np.where(
        settled, np.where(grow, np.minimum(max_allocation, grown),
                          np.maximum(min_allocation, shrunk)),
        np.where(estimated & ~unpressed & ~idle, new, current))
    changed = after != current
    reasons = np.select(
        [settled & grow & changed, settled & grow, settled & changed,
         settled, ~estimated, unpressed, idle, ~changed, edge & grow,
         edge],
        ["saturation-grow", "saturation-capped", "overload-shed",
         "overload-floor", "no-estimate", "edge-unpressed-hold",
         "idle-hold", "unchanged", "edge-grow", "edge-shrink"], "")
    return tuple(
        record(name, trigger, "applied" if moved else "hold",
               reason or estimate.method, before, new_allocation,
               float(threshold), estimate if use else None,
               can if pinned else None, curve_points)
        for name, before, new_allocation, moved, reason, threshold,
        estimate, use, can, pinned in zip(
            targets, current.tolist(), after.tolist(), changed.tolist(),
            reasons.tolist(), thresholds, estimates, estimated.tolist(),
            grow.tolist(), settled.tolist()))


def decide_round(model: ScatterCurveModel, targets: _t.Sequence[str],
                 trigger: str, current, thresholds, processing_p90,
                 windows: _t.Sequence[Window], *, min_allocation: int,
                 max_allocation: int,
                 curve_points: int = 0) -> tuple[TargetDecision, ...]:
    """One round's verdicts, as :func:`decide`, from each target's
    ``(concurrency, rate)`` estimation window: one
    :meth:`~repro.core.scg.ScatterCurveModel.estimate_many` call
    estimates the rows :func:`saturated` leaves open, each under its
    threshold (none where it is ``inf``: the latency-agnostic SCT)."""
    settled = saturated(current, [window[0] for window in windows],
                        model.config.min_samples)
    rows = np.flatnonzero(~settled).tolist()
    estimates: list[ConcurrencyEstimate | None] = [None] * len(targets)
    for row, estimate in zip(rows, model.estimate_many(
            [windows[row] for row in rows],
            [None if thresholds[row] == np.inf else thresholds[row]
             for row in rows])):
        estimates[row] = estimate
    return decide(targets, trigger, current, thresholds, processing_p90,
                  settled, estimates, min_allocation=min_allocation,
                  max_allocation=max_allocation, curve_points=curve_points)


def action_method(decision: TargetDecision) -> str:
    """How an applied decision's allocation was obtained: the estimate
    method, ``"saturation"`` for saturation growth, else the rule."""
    if decision.method is None and decision.reason == "saturation-grow":
        return "saturation"
    return decision.method or decision.reason
