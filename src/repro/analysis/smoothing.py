"""Scatter-graph smoothing for knee detection (paper §3.3).

The SCG model fits a smoothing polynomial to the noisy
concurrency-goodput scatter before running Kneedle. The paper tunes the
polynomial degree *incrementally*: too low a degree cannot expose a
valid knee, too high a degree overfits measurement noise; degrees 5–8
typically fit a 1-minute profile. This module supplies the fit itself;
the degree search lives in
:meth:`repro.core.scg.ScatterCurveModel.estimate_many`, which raises
the degree until Kneedle confirms a knee.

:class:`PolynomialFitter` fits many series at once, each over its own
levels (the aggregated concurrency levels of one window of a control
round): one stacked QR factorization per series serves every degree of
the search, and each degree's solve and evaluation run over all series
in whole-array operations. :func:`fit_polynomial` is its one-series
case.
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


@dataclass(frozen=True)
class PolynomialFits:
    """Fits of one degree for many series.

    Row ``i`` of every field belongs to series ``i``; each series has
    its own dense grid ``x[i]`` spanning its levels.
    """

    degree: int
    coefficients: np.ndarray
    x: np.ndarray
    y: np.ndarray
    rmse: np.ndarray

    def row(self, index: int) -> PolynomialFit:
        """The fit of one series."""
        return PolynomialFit(degree=self.degree,
                             coefficients=self.coefficients[index],
                             x=self.x[index], y=self.y[index],
                             rmse=float(self.rmse[index]))


def _polyval(coefficients: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Row ``i`` is ``np.polyval(coefficients[i], x[i])``, bit for bit
    (the same Horner steps, in place)."""
    y = np.zeros_like(x)
    for column in coefficients.T:
        y *= x
        y += column[:, None]
    return y


class PolynomialFitter:
    """Least-squares polynomial fits of every row of ``ys`` over the
    same row of ``x``, for any degree up to ``max_degree``, evaluated
    on a dense grid per row.

    The design matrix of row ``i`` has columns ``1, x, ..., x**max_degree``
    scaled to unit norm, as :func:`numpy.polyfit` scales them. Each
    lower degree's design matrix is a leading block of it, so one QR
    factorization per row (stacked, one LAPACK call per row) and one
    projection ``Q.T @ y`` serve every degree; :meth:`fit` then solves
    the leading triangular block. Every step is per row (stacked
    LAPACK calls, elementwise operations, reductions within a row), so
    a series fits bit-identically alone or in a batch. A row holding a
    NaN or infinite value fits to NaN throughout.

    Raises ``ValueError`` if some row has too few distinct ``x`` values
    to support ``max_degree``.
    """

    def __init__(self, x: np.ndarray, ys: np.ndarray, max_degree: int,
                 grid_points: int = 200) -> None:
        x = np.asarray(x, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if x.ndim != 2 or ys.shape != x.shape:
            raise ValueError(f"shape mismatch: {x.shape} vs {ys.shape}")
        if max_degree < 1:
            raise ValueError(f"degree must be >= 1, got {max_degree}")
        distinct = 1 + np.count_nonzero(np.diff(np.sort(x, axis=1),
                                                axis=1), axis=1)
        if distinct.size and int(distinct.min()) <= max_degree:
            raise ValueError(
                f"need more than {max_degree} distinct x values, have "
                f"{int(distinct.min())}")
        finite = np.isfinite(ys).all(axis=1)
        if not finite.all():
            # A non-finite sample leaves its whole fit undefined (NaN),
            # not infinite with signs set by the solver's arithmetic.
            ys = np.where(finite[:, None], ys, np.nan)
        rows, size = x.shape
        powers = np.empty((rows, max_degree + 1, size))
        powers[:, 0] = 1.0
        for power in range(1, max_degree + 1):
            np.multiply(powers[:, power - 1], x, out=powers[:, power])
        scale = np.sqrt(np.einsum("rkn,rkn->rk", powers, powers))
        q, r = np.linalg.qr(np.transpose(powers / scale[:, :, None],
                                         (0, 2, 1)))
        self.max_degree = max_degree
        self._ys = ys
        self._scale = scale
        self._r = r
        self._projection = np.einsum("rnk,rn->rk", q, ys)
        # Every fit is evaluated at the levels (for the rmse) and on the
        # dense grid: one Horner pass over both.
        self._points = np.concatenate(
            [x, np.linspace(x.min(axis=1), x.max(axis=1), grid_points,
                            axis=1)], axis=1)

    def fit(self, degree: int,
            rows: np.ndarray | None = None) -> PolynomialFits:
        """The degree-``degree`` fits of ``rows`` (default: all), in
        that order."""
        if not 1 <= degree <= self.max_degree:
            raise ValueError(f"degree must be in [1, {self.max_degree}], "
                             f"got {degree}")
        chosen = slice(None) if rows is None else rows
        size = degree + 1
        solved = np.linalg.solve(self._r[chosen, :size, :size],
                                 self._projection[chosen, :size, None])
        coefficients = (solved[:, :, 0] /
                        self._scale[chosen, :size])[:, ::-1]
        points = self._points[chosen]
        values = _polyval(coefficients, points)
        levels = self._ys.shape[1]
        residual = values[:, :levels] - self._ys[chosen]
        return PolynomialFits(
            degree=degree, coefficients=coefficients, x=points[:, levels:],
            y=values[:, levels:],
            rmse=np.sqrt(np.mean(residual ** 2, axis=1)))


def fit_polynomial(x: np.ndarray, y: np.ndarray, degree: int,
                   grid_points: int = 200) -> PolynomialFit:
    """Least-squares polynomial fit evaluated on a dense grid: the
    one-series case of :class:`PolynomialFitter`.

    Raises ``ValueError`` if there are not enough distinct points to
    support ``degree``.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    return PolynomialFitter(x[None, :], y[None, :], degree,
                            grid_points).fit(degree).row(0)
