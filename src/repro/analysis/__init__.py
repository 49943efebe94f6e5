"""Statistical analysis: Kneedle knee detection, smoothing, correlation."""

from repro.analysis.changepoint import ChangePoint, PageHinkley
from repro.analysis.correlation import pearson
from repro.analysis.kneedle import KneeResult, find_knee
from repro.analysis.queueing import (
    MvaResult,
    Station,
    asymptotic_bounds,
    bottleneck,
    solve_mva,
    solve_mva_sweep,
)
from repro.analysis.smoothing import (
    PolynomialFit,
    aggregate_scatter,
    fit_polynomial,
)

__all__ = [
    "ChangePoint",
    "KneeResult",
    "PageHinkley",
    "MvaResult",
    "Station",
    "asymptotic_bounds",
    "bottleneck",
    "solve_mva",
    "solve_mva_sweep",
    "PolynomialFit",
    "aggregate_scatter",
    "find_knee",
    "fit_polynomial",
    "pearson",
]
