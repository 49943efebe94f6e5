"""Kneedle knee-point detection (Satopaa et al., ICDCSW'11).

The SCG model's Estimation Phase finds the knee of the smoothed
concurrency-goodput curve — the concurrency beyond which extra
parallelism stops paying — and recommends it as the optimal soft
resource allocation (§3.2–3.3).

Algorithm (offline form):

1. normalize ``x``/``y`` to the unit square;
2. transform so the curve is concave increasing;
3. compute the difference curve ``d = y_n − x_n``;
4. local maxima of ``d`` are knee candidates; a candidate is confirmed
   if ``d`` drops below its sensitivity threshold
   ``T = d(max) − S·mean(Δx_n)`` before the next local maximum.

The sensitivity ``S`` trades early detection against false positives
(the paper uses the default ``S = 1``).

:func:`find_knees` runs the algorithm over many curves at once (the
smoothed curves of a control round, each over its own grid) with
whole-array operations: step 4 takes the lowest point of the segment
each local maximum owns (up to the next one in its row) in one
segmented reduction over the batch. :func:`find_knee` is its one-row
case. Steps 1–2 for ``x`` do not depend on the curve, so a
:class:`KneeGrid` computes them once for every set of curves over the
same abscissas (the fits of each degree of one SCG search);
:func:`find_knees` builds one per call.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass

import numpy as np

Curve = _t.Literal["concave", "convex"]
Direction = _t.Literal["increasing", "decreasing"]


@dataclass(frozen=True)
class KneeResult:
    """Outcome of knee detection.

    Attributes:
        found: whether any knee was confirmed.
        knee_x / knee_y: coordinates of the selected knee in the
            original units (NaN when not found).
        all_knee_x: every confirmed knee, in x order.
        difference: the normalized difference curve (diagnostics).
        prominence: height of the normalized difference curve at the
            selected knee, in [0, 1] — how far the curve bulges above
            the straight line between its endpoints. Sharp capacity
            knees score high; gentle roll-offs score near 0 (NaN when
            not found). Surfaced as a knee-confidence diagnostic on
            control decisions.
    """

    found: bool
    knee_x: float
    knee_y: float
    all_knee_x: tuple[float, ...]
    difference: np.ndarray
    prominence: float = float("nan")

    def __bool__(self) -> bool:
        return self.found


#: Transforms that reverse the index order (so transformed index ``t``
#: is original index ``n - 1 - t``).
_REFLECTED = {("concave", "decreasing"), ("convex", "increasing")}

_SHAPES = {(curve, direction) for curve in ("concave", "convex")
           for direction in ("increasing", "decreasing")}


def _not_found() -> KneeResult:
    return KneeResult(found=False, knee_x=float("nan"),
                      knee_y=float("nan"), all_knee_x=(),
                      difference=np.empty(0))


@dataclass(frozen=True)
class KneeBatch:
    """Kneedle outcome for every row of a batch of curves.

    Attributes:
        x: the abscissa of each curve, one per row.
        y: the curves, one per row.
        found: per row, whether any knee was confirmed.
        index: per row, the selected knee's index into ``x`` (0 when
            not found).
        confirmed: per row and original index, the confirmed knees.
        difference: per row, the normalized difference curve in
            transformed order.
        prominence: per row, ``difference`` at the selected knee (NaN
            when not found).
    """

    x: np.ndarray
    y: np.ndarray
    found: np.ndarray
    index: np.ndarray
    confirmed: np.ndarray
    difference: np.ndarray
    prominence: np.ndarray

    @property
    def knee_x(self) -> np.ndarray:
        """Per row, the selected knee's ``x`` (NaN when not found)."""
        rows = np.arange(self.found.size)
        return np.where(self.found, self.x[rows, self.index], np.nan)

    @property
    def knee_y(self) -> np.ndarray:
        """Per row, the selected knee's ``y`` (NaN when not found)."""
        rows = np.arange(self.found.size)
        return np.where(self.found, self.y[rows, self.index], np.nan)

    def rows(self, rows: _t.Sequence[int] | np.ndarray
             ) -> list[KneeResult]:
        """The :class:`KneeResult` of each curve in ``rows``, in that
        order, built from one array-to-list conversion per field."""
        rows = np.asarray(rows, dtype=np.intp)
        found = self.found[rows].tolist()
        index = self.index[rows]
        knee_x = self.x[rows, index].tolist()
        knee_y = self.y[rows, index].tolist()
        prominence = self.prominence[rows].tolist()
        # Confirmed knees of every row, in row then x order.
        slots, columns = np.nonzero(self.confirmed[rows])
        confirmed_x = self.x[rows[slots], columns].tolist()
        ends = np.cumsum(np.bincount(slots, minlength=rows.size)).tolist()
        results = []
        start = 0
        for slot, row in enumerate(rows.tolist()):
            end = ends[slot]
            if found[slot]:
                results.append(KneeResult(
                    found=True, knee_x=knee_x[slot], knee_y=knee_y[slot],
                    all_knee_x=tuple(confirmed_x[start:end]),
                    difference=self.difference[row],
                    prominence=prominence[slot]))
            else:
                results.append(_not_found())
            start = end
        return results

    def row(self, row: int) -> KneeResult:
        """The :class:`KneeResult` of one curve: the one-row case of
        :meth:`rows`."""
        return self.rows([row])[0]


class KneeGrid:
    """Kneedle's ``x`` side for curves over a fixed batch of abscissas.

    Everything Kneedle derives from ``x`` alone (the sortedness check,
    each row's normalization and transform, and the mean spacing of
    the transformed abscissa) is computed once here; :meth:`knees` then
    runs the ``y`` side for any set of curves over the same rows of
    ``x``, such as the fits of every degree of one SCG search.

    Args:
        x: one ascending abscissa per row.
        curve / direction: curve shape, as in :func:`find_knee`.
    """

    def __init__(self, x: np.ndarray, *, curve: Curve = "concave",
                 direction: Direction = "increasing") -> None:
        x = np.asarray(x, dtype=float)
        if x.ndim != 2:
            raise ValueError(f"x must be 2-D, got shape {x.shape}")
        if (curve, direction) not in _SHAPES:
            raise ValueError(f"invalid curve/direction: {curve}/{direction}")
        self.x = x
        self.curve = curve
        self.reflected = (curve, direction) in _REFLECTED
        if x.shape[1] < 3:
            return
        if np.any(np.diff(x, axis=1) < 0):
            raise ValueError("x must be sorted ascending")
        x_min = x.min(axis=1)
        x_span = x.max(axis=1) - x_min
        # A flat row stays all-NaN below and so confirms no knee.
        with np.errstate(divide="ignore", invalid="ignore"):
            x_n = (x - x_min[:, None]) / x_span[:, None]
        # Reflect so that the curves are increasing.
        self._x_t = (1.0 - x_n)[:, ::-1] if self.reflected else x_n
        self._mean_spacing = np.mean(np.abs(np.diff(self._x_t, axis=1)),
                                     axis=1)

    def knees(self, ys: np.ndarray, rows: np.ndarray | None = None, *,
              sensitivity: float = 1.0,
              select: _t.Literal["first", "prominent"] = "first"
              ) -> KneeBatch:
        """Detect the knee of every row of ``ys`` over the matching row
        of ``x``: row ``i`` of ``ys`` pairs with row ``rows[i]`` of
        ``x`` (default: ``ys`` has one row per row of ``x``).

        Every step is elementwise or a reduction within a row, so each
        row's result is bit-identical to running it alone.
        """
        ys = np.asarray(ys, dtype=float)
        chosen = slice(None) if rows is None else rows
        x = self.x[chosen]
        if ys.shape != x.shape:
            raise ValueError(f"shape mismatch: {x.shape} vs {ys.shape}")
        if sensitivity < 0:
            raise ValueError(f"sensitivity must be >= 0, got {sensitivity}")
        count, size = ys.shape
        found = np.zeros(count, dtype=bool)
        index = np.zeros(count, dtype=np.intp)
        confirmed = np.zeros(ys.shape, dtype=bool)
        prominence = np.full(count, np.nan)
        if size < 3:
            return KneeBatch(x=x, y=ys, found=found, index=index,
                             confirmed=confirmed,
                             difference=np.full(ys.shape, np.nan),
                             prominence=prominence)

        y_min = ys.min(axis=1)
        y_span = ys.max(axis=1) - y_min
        # A flat row (in x or in y) stays all-NaN below and so confirms
        # no knee.
        y_n = ys - y_min[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            y_n /= y_span[:, None]
        # Transform so that the curves are concave increasing.
        if self.curve == "convex":
            np.subtract(1.0, y_n, out=y_n)
        y_t = y_n[:, ::-1] if self.reflected else y_n
        difference = y_t - self._x_t[chosen]
        mean_spacing = self._mean_spacing[chosen]
        del y_n, y_t
        batch = KneeBatch(x=x, y=ys, found=found, index=index,
                          confirmed=confirmed, difference=difference,
                          prominence=prominence)

        # Local maxima of each difference curve (candidate knees), in
        # row then column order.
        inner = difference[:, 1:-1]
        is_max = inner > difference[:, :-2]
        is_max &= inner >= difference[:, 2:]
        peak_rows, peak_cols = np.nonzero(is_max)
        del is_max
        peak_cols += 1
        # A maximum is confirmed when the curve drops below its
        # threshold (its difference value less ``S`` mean spacings)
        # before the next maximum of its row or the row's end: the
        # lowest point of that segment (NaN points never drop) lies
        # below the threshold. The segments are cut at every maximum
        # and at the end of every row holding one (never a maximum's
        # position: column 0 holds none).
        starts = peak_rows * size + peak_cols
        last = np.ones(starts.size, dtype=bool)
        last[:-1] = peak_rows[1:] != peak_rows[:-1]
        ends = (peak_rows[last] + 1) * size
        bounds = np.sort(np.concatenate(
            (starts, ends[ends < difference.size])))
        lows = (np.fmin.reduceat(difference.ravel(), bounds)
                [np.searchsorted(bounds, starts)] if starts.size
                else starts)
        threshold = (difference[peak_rows, peak_cols] -
                     sensitivity * mean_spacing[peak_rows])
        dropped = lows < threshold
        knees = np.zeros(ys.shape, dtype=bool)
        knees[peak_rows[dropped], peak_cols[dropped]] = True
        found[:] = knees.any(axis=1)

        # A terminal local maximum with no room to decay still marks the
        # curve's flattening when it is the global maximum (offline use).
        last_rows, last_cols = peak_rows[last], peak_cols[last]
        room = ~found[last_rows] & (last_cols >= size - 2)
        last_rows, last_cols = last_rows[room], last_cols[room]
        terminal = (difference[last_rows, last_cols] ==
                    difference[last_rows].max(axis=1))
        knees[last_rows[terminal], last_cols[terminal]] = True
        found[last_rows[terminal]] = True

        reflected = self.reflected
        confirmed[:] = knees[:, ::-1] if reflected else knees
        if select == "prominent":
            chosen_t = np.argmax(np.where(knees, difference, -np.inf),
                                 axis=1)
            index[:] = size - 1 - chosen_t if reflected else chosen_t
        else:
            index[:] = np.argmax(confirmed, axis=1)
            chosen_t = size - 1 - index if reflected else index
        chosen_t = np.where(found, chosen_t, 0)
        index[~found] = 0
        prominence[found] = difference[found, chosen_t[found]]
        return batch


def find_knees(x: _t.Sequence[float] | np.ndarray,
               ys: np.ndarray, *,
               curve: Curve = "concave",
               direction: Direction = "increasing",
               sensitivity: float = 1.0,
               select: _t.Literal["first", "prominent"] = "first"
               ) -> KneeBatch:
    """Detect the knee of every row of ``ys`` over the same row of
    ``x``.

    Arguments are those of :func:`find_knee`, with one curve per row
    of the 2-D ``ys``; ``x`` is either one abscissa shared by every
    row or one per row. Runs :meth:`KneeGrid.knees` on a grid built
    for this call, so each row's result is bit-identical to running it
    alone.
    """
    ys = np.asarray(ys, dtype=float)
    x = np.asarray(x, dtype=float)
    if ys.ndim != 2 or x.shape not in (ys.shape, ys.shape[1:]):
        raise ValueError(f"shape mismatch: {x.shape} vs {ys.shape}")
    if sensitivity < 0:
        raise ValueError(f"sensitivity must be >= 0, got {sensitivity}")
    grid = KneeGrid(np.broadcast_to(x, ys.shape), curve=curve,
                    direction=direction)
    return grid.knees(ys, sensitivity=sensitivity, select=select)


def find_knee(x: _t.Sequence[float] | np.ndarray,
              y: _t.Sequence[float] | np.ndarray, *,
              curve: Curve = "concave",
              direction: Direction = "increasing",
              sensitivity: float = 1.0,
              select: _t.Literal["first", "prominent"] = "first"
              ) -> KneeResult:
    """Detect the knee of an ``x``-sorted curve: the one-row case of
    :func:`find_knees`.

    Args:
        x: strictly or weakly increasing abscissa.
        y: curve values (smooth them first; see
            :mod:`repro.analysis.smoothing`).
        curve / direction: curve shape, as in the Kneedle paper.
        sensitivity: the ``S`` parameter; larger is more conservative.
        select: which confirmed knee to report — the ``first`` one (the
            kneed library's default) or the most ``prominent`` one (the
            largest difference value).

    Returns:
        A :class:`KneeResult`; ``found`` is False for degenerate inputs
        (fewer than 3 points, flat curves, no confirmed knee).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    return find_knees(x, y[None, :], curve=curve, direction=direction,
                      sensitivity=sensitivity, select=select).row(0)
