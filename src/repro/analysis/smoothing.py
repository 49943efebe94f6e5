"""Scatter-graph smoothing for knee detection (paper §3.3).

The SCG model fits a smoothing polynomial to the noisy
concurrency-goodput scatter before running Kneedle. The paper tunes the
polynomial degree *incrementally*: too low a degree cannot expose a
valid knee, too high a degree overfits measurement noise; degrees 5–8
typically fit a 1-minute profile. This module supplies the fit itself;
the degree search lives in
:meth:`repro.core.scg.ScatterCurveModel.estimate`, which raises the
degree until Kneedle confirms a knee.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PolynomialFit:
    """A fitted polynomial evaluated over a dense grid."""

    degree: int
    coefficients: np.ndarray
    x: np.ndarray
    y: np.ndarray
    rmse: float

    def __call__(self, x: _t.Sequence[float] | np.ndarray) -> np.ndarray:
        """Evaluate the fitted polynomial."""
        return np.polyval(self.coefficients, np.asarray(x, dtype=float))


def aggregate_scatter(x: np.ndarray, y: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Average ``y`` per distinct ``x`` ("for a specific concurrency Q_n
    we calculate the average goodput GP_n", §3.2), sorted by ``x``."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    if x.size == 0:
        return x, y
    order = np.argsort(x, kind="stable")
    x_sorted, y_sorted = x[order], y[order]
    unique_x, starts = np.unique(x_sorted, return_index=True)
    sums = np.add.reduceat(y_sorted, starts)
    counts = np.diff(np.append(starts, x_sorted.size))
    return unique_x, sums / counts


def fit_polynomial(x: np.ndarray, y: np.ndarray, degree: int,
                   grid_points: int = 200) -> PolynomialFit:
    """Least-squares polynomial fit evaluated on a dense grid.

    Raises ``ValueError`` if there are not enough distinct points to
    support ``degree``.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    if np.unique(x).size <= degree:
        raise ValueError(
            f"need more than {degree} distinct x values, have "
            f"{np.unique(x).size}")
    coefficients = np.polyfit(x, y, degree)
    fitted = np.polyval(coefficients, x)
    rmse = float(np.sqrt(np.mean((fitted - y) ** 2)))
    grid = np.linspace(float(x.min()), float(x.max()), grid_points)
    return PolynomialFit(degree=degree, coefficients=coefficients,
                         x=grid, y=np.polyval(coefficients, grid),
                         rmse=rmse)
