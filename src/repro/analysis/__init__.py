"""Statistical analysis: Kneedle knee detection, smoothing, correlation."""

from repro.analysis.changepoint import ChangePoint, PageHinkley
from repro.analysis.correlation import pearson
from repro.analysis.kneedle import (
    KneeBatch,
    KneeGrid,
    KneeResult,
    find_knee,
    find_knees,
)
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
    PolynomialFits,
    PolynomialFitter,
    aggregate_scatter,
    fit_polynomial,
)

__all__ = [
    "ChangePoint",
    "KneeBatch",
    "KneeGrid",
    "KneeResult",
    "PageHinkley",
    "MvaResult",
    "Station",
    "asymptotic_bounds",
    "bottleneck",
    "solve_mva",
    "solve_mva_sweep",
    "PolynomialFit",
    "PolynomialFits",
    "PolynomialFitter",
    "aggregate_scatter",
    "find_knee",
    "find_knees",
    "fit_polynomial",
    "pearson",
]
