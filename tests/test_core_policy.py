"""The shared adaptation policy, one table row per reason.

Each row is one target's columns: the allocation in force, its window
of concurrency samples, the propagated threshold, the processing P90
and the estimate. Finite thresholds are Sora's latency-sensitive path;
an infinite threshold is ConScale's latency-agnostic SCT path, where
growth is always allowed.
"""

import math

import numpy as np
import pytest

from repro.analysis.kneedle import KneeResult
from repro.analysis.smoothing import PolynomialFit
from repro.core import policy
from repro.core.scg import ConcurrencyEstimate

INF = math.inf
NAN = math.nan
THRESHOLD = 0.3
HEALTHY = 0.1  # processing P90 within the threshold
MELTING = 0.5  # processing P90 past it
MIN_SAMPLES = 20
BOUNDS = dict(min_allocation=1, max_allocation=100)

#: Forty samples spread over concurrency 1..20.
SPREAD = np.linspace(1.0, 20.0, 40)


def pinned(level: float) -> np.ndarray:
    """Forty samples at ``level``."""
    return np.full(40, level)


def estimate(optimal: int, method: str = "knee", peak: float = 20.0
             ) -> ConcurrencyEstimate:
    found = method == "knee"
    knee = KneeResult(found=found, knee_x=optimal if found else NAN,
                      knee_y=50.0 if found else NAN, all_knee_x=(),
                      difference=np.zeros(0),
                      prominence=0.5 if found else NAN)
    fit = PolynomialFit(degree=3, coefficients=np.zeros(4),
                        x=np.linspace(0.0, peak, 64),
                        y=np.linspace(0.0, 100.0, 64), rmse=0.0)
    return ConcurrencyEstimate(
        optimal_concurrency=optimal, method=method, knee=knee, fit=fit,
        samples=40, max_concurrency=peak, fit_r2=0.99)


#: ``(current, window, threshold, p90, estimate, reason, after)``.
ROWS = {
    "knee": (30, SPREAD, THRESHOLD, HEALTHY, estimate(12), "knee", 12),
    "argmax": (30, SPREAD, THRESHOLD, HEALTHY,
               estimate(14, "argmax"), "argmax", 14),
    "knee-shrink-clamped": (32, SPREAD, THRESHOLD, HEALTHY, estimate(4),
                            "knee", 8),
    "saturation-grow": (10, pinned(10.0), THRESHOLD, HEALTHY, None,
                        "saturation-grow", 15),
    "saturation-capped": (100, pinned(100.0), THRESHOLD, HEALTHY, None,
                          "saturation-capped", 100),
    "overload-shed": (10, pinned(10.0), THRESHOLD, MELTING, None,
                      "overload-shed", 3),
    "overload-shed-no-spans": (10, pinned(10.0), THRESHOLD, NAN, None,
                               "overload-shed", 3),
    "overload-floor": (1, pinned(1.0), THRESHOLD, MELTING, None,
                       "overload-floor", 1),
    "edge-unpressed-hold": (40, SPREAD, THRESHOLD, HEALTHY,
                            estimate(20), "edge-unpressed-hold", 40),
    "edge-grow": (20, SPREAD, THRESHOLD, HEALTHY, estimate(20),
                  "edge-grow", 30),
    "edge-shrink": (20, SPREAD, THRESHOLD, MELTING, estimate(20),
                    "edge-shrink", 5),
    # Exactly 90% of the peak is the edge.
    "edge-grow-at-90pct": (20, SPREAD, THRESHOLD, HEALTHY, estimate(18),
                           "edge-grow", 30),
    # A peak of exactly 60% of the pool pressed it.
    "knee-pressed-at-60pct": (50, SPREAD, THRESHOLD, HEALTHY,
                              estimate(13, peak=30.0), "knee", 13),
    "idle-hold": (100, SPREAD, THRESHOLD, HEALTHY, estimate(8),
                  "idle-hold", 100),
    "unchanged": (14, SPREAD, THRESHOLD, HEALTHY, estimate(14),
                  "unchanged", 14),
    "no-estimate": (30, SPREAD, THRESHOLD, HEALTHY, None,
                    "no-estimate", 30),
    # The SCT path: growth needs no processing evidence.
    "sct-knee": (30, SPREAD, INF, NAN, estimate(12), "knee", 12),
    "sct-argmax": (30, SPREAD, INF, NAN, estimate(14, "argmax"),
                   "argmax", 14),
    "sct-saturation-grow": (10, pinned(10.0), INF, MELTING, None,
                            "saturation-grow", 15),
    "sct-saturation-capped": (100, pinned(100.0), INF, NAN, None,
                              "saturation-capped", 100),
    "sct-edge-unpressed-hold": (40, SPREAD, INF, NAN, estimate(20),
                                "edge-unpressed-hold", 40),
    "sct-edge-grow": (20, SPREAD, INF, NAN, estimate(20), "edge-grow",
                      30),
    "sct-idle-hold": (100, SPREAD, INF, NAN, estimate(8), "idle-hold",
                      100),
    "sct-unchanged": (14, SPREAD, INF, NAN, estimate(14), "unchanged",
                      14),
    "sct-no-estimate": (30, SPREAD, INF, NAN, None, "no-estimate", 30),
}


def run(rows):
    current = [row[0] for row in rows]
    settled = policy.saturated(current, [row[1] for row in rows],
                               MIN_SAMPLES)
    return policy.decide(
        [f"t{index}" for index in range(len(rows))], "periodic",
        current, [row[2] for row in rows], [row[3] for row in rows],
        settled, [row[4] for row in rows], **BOUNDS)


@pytest.mark.parametrize("name", list(ROWS))
def test_row_decides_its_reason(name):
    current, _window, threshold, _p90, given, reason, after = ROWS[name]
    (decision,) = run([ROWS[name]])
    assert (decision.reason, decision.after) == (reason, after)
    assert decision.before == current
    assert decision.outcome == ("hold" if after == current else "applied")
    assert decision.threshold == (None if threshold == INF else threshold)
    # Rule-settled saturation rows ignore any estimate; the others
    # carry the estimate's evidence when there is one.
    if reason.startswith(("saturation", "overload")):
        assert decision.method is None
        assert decision.growth_can_help is reason.startswith("saturation")
    else:
        assert decision.growth_can_help is None
        assert decision.method == (given.method if given else None)


def test_every_round_reason_has_a_row():
    assert {row[5] for row in ROWS.values()} == set(policy.ROUND_REASONS)


def test_a_round_decides_each_row_as_alone():
    together = run(list(ROWS.values()))
    alone = [run([row])[0] for row in ROWS.values()]
    assert [d.reason for d in together] == [d.reason for d in alone]
    assert [d.after for d in together] == [d.after for d in alone]


def test_saturation_ignores_a_given_estimate():
    current, window, threshold, p90, *_ = ROWS["saturation-grow"]
    (decision,) = run([(current, window, threshold, p90, estimate(4),
                        None, None)])
    assert decision.reason == "saturation-grow"
    assert decision.samples is None


@pytest.mark.parametrize("window,current,expected", [
    (pinned(10.0), 10, True),
    (pinned(9.0), 10, True),          # 90% of the allocation is pinned
    (pinned(8.9), 10, False),
    (np.r_[pinned(9.0)[:10], pinned(1.0)[:10]], 10, True),  # half
    (np.r_[pinned(9.0)[:9], pinned(1.0)[:10]], 10, False),
    (pinned(10.0)[:9], 10, False),    # fewer than MIN_SAMPLES // 2 busy
    (np.r_[pinned(10.0)[:9], np.zeros(30)], 10, False),  # idle samples
    (np.zeros(0), 10, False),
])
def test_saturated_needs_half_of_enough_busy_samples_pinned(
        window, current, expected):
    assert policy.saturated([current], [window], MIN_SAMPLES).tolist() \
        == [expected]


def test_saturated_of_no_targets_is_empty():
    assert policy.saturated([], [], MIN_SAMPLES).size == 0


@pytest.mark.parametrize("threshold,p90,expected", [
    (INF, NAN, True), (INF, 9.0, True),
    (0.3, 0.3, True), (0.3, 0.31, False), (0.3, NAN, False),
])
def test_can_grow(threshold, p90, expected):
    assert bool(policy.can_grow(threshold, p90)) is expected


@pytest.mark.parametrize("name,method", [
    ("knee", "knee"), ("edge-grow", "knee"),
    ("saturation-grow", "saturation"), ("overload-shed", "overload-shed"),
])
def test_action_method(name, method):
    (decision,) = run([ROWS[name]])
    assert decision.outcome == "applied"
    assert policy.action_method(decision) == method


def test_applied_estimate_carries_its_curve():
    (decision,) = policy.decide(
        ["t"], "periodic", [30], [THRESHOLD], [HEALTHY], [False],
        [estimate(12)], curve_points=8, **BOUNDS)
    assert decision.curve is not None and len(decision.curve) == 8
    (held,) = policy.decide(
        ["t"], "periodic", [14], [THRESHOLD], [HEALTHY], [False],
        [estimate(14)], curve_points=8, **BOUNDS)
    assert held.curve is None
