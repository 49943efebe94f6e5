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
whole-array operations: step 4 forward-fills, for every point, the
local maximum that owns its segment. :func:`find_knee` is its one-row
case.
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


def _transform(x_n: np.ndarray, y_n: np.ndarray, curve: Curve,
               direction: Direction) -> tuple[np.ndarray, np.ndarray]:
    """Reflect axes so that the curves (rows of ``x_n`` / ``y_n``) are
    concave increasing."""
    if curve == "concave" and direction == "increasing":
        return x_n, y_n
    if curve == "concave" and direction == "decreasing":
        return (1.0 - x_n)[..., ::-1], y_n[..., ::-1]
    if curve == "convex" and direction == "increasing":
        return (1.0 - x_n)[..., ::-1], (1.0 - y_n)[..., ::-1]
    if curve == "convex" and direction == "decreasing":
        return x_n, 1.0 - y_n
    raise ValueError(f"invalid curve/direction: {curve}/{direction}")


#: Transforms that reverse the index order (so transformed index ``t``
#: is original index ``n - 1 - t``).
_REFLECTED = {("concave", "decreasing"), ("convex", "increasing")}


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

    def row(self, row: int) -> KneeResult:
        """The :class:`KneeResult` of one curve."""
        if not self.found[row]:
            return _not_found()
        chosen = int(self.index[row])
        return KneeResult(
            found=True,
            knee_x=float(self.x[row, chosen]),
            knee_y=float(self.y[row, chosen]),
            all_knee_x=tuple(float(value) for value
                             in self.x[row, self.confirmed[row]]),
            difference=self.difference[row],
            prominence=float(self.prominence[row]),
        )


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
    row or one per row. Every step is elementwise or a reduction
    within a row, so each row's result is bit-identical to running it
    alone.
    """
    ys = np.asarray(ys, dtype=float)
    x = np.asarray(x, dtype=float)
    if ys.ndim != 2 or x.shape not in (ys.shape, ys.shape[1:]):
        raise ValueError(f"shape mismatch: {x.shape} vs {ys.shape}")
    x = np.broadcast_to(x, ys.shape)
    if sensitivity < 0:
        raise ValueError(f"sensitivity must be >= 0, got {sensitivity}")
    rows, size = ys.shape
    found = np.zeros(rows, dtype=bool)
    index = np.zeros(rows, dtype=np.intp)
    confirmed = np.zeros(ys.shape, dtype=bool)
    difference = np.full(ys.shape, np.nan)
    prominence = np.full(rows, np.nan)
    batch = KneeBatch(x=x, y=ys, found=found, index=index,
                      confirmed=confirmed, difference=difference,
                      prominence=prominence)
    if size < 3:
        return batch
    if np.any(np.diff(x, axis=1) < 0):
        raise ValueError("x must be sorted ascending")

    x_min = x.min(axis=1)
    x_span = x.max(axis=1) - x_min
    y_min = ys.min(axis=1)
    y_span = ys.max(axis=1) - y_min
    # A flat row (in x or in y) stays all-NaN below and so confirms no
    # knee.
    with np.errstate(divide="ignore", invalid="ignore"):
        x_n = (x - x_min[:, None]) / x_span[:, None]
        y_n = (ys - y_min[:, None]) / y_span[:, None]
    x_t, y_t = _transform(x_n, y_n, curve, direction)
    np.subtract(y_t, x_t, out=difference)
    mean_spacing = np.mean(np.abs(np.diff(x_t, axis=1)), axis=1)
    del x_n, y_n, x_t, y_t

    # Local maxima of each difference curve (candidate knees).
    is_max = np.zeros(ys.shape, dtype=bool)
    is_max[:, 1:-1] = ((difference[:, 1:-1] > difference[:, :-2]) &
                       (difference[:, 1:-1] >= difference[:, 2:]))
    # A maximum is confirmed when the curve drops below its threshold
    # (its difference value less ``S`` mean spacings) before the next
    # maximum: forward-fill each point's owning maximum and compare
    # the point with that maximum's threshold. A maximum never lies
    # below its own threshold (S >= 0), so runs of dropped points never
    # span a maximum, and marking the owner of each run's first point
    # marks every confirmed maximum.
    owner = np.where(is_max, np.arange(size), -1)
    del is_max
    np.maximum.accumulate(owner, axis=1, out=owner)
    owner_threshold = difference.take(
        np.maximum(owner, 0) + (size * np.arange(rows))[:, None])
    owner_threshold -= sensitivity * mean_spacing[:, None]
    drops = (owner >= 0) & (difference < owner_threshold)
    del owner_threshold
    drops[:, 1:] &= ~drops[:, :-1]
    drop_rows, drop_cols = np.nonzero(drops)
    knees = np.zeros(ys.shape, dtype=bool)
    knees[drop_rows, owner[drop_rows, drop_cols]] = True

    # A terminal local maximum with no room to decay still marks the
    # curve's flattening when it is the global maximum (offline use).
    last = owner[:, -1]
    terminal = (~knees.any(axis=1) & (last >= size - 2) &
                (difference[np.arange(rows), np.maximum(last, 0)] ==
                 difference.max(axis=1)))
    knees[terminal, last[terminal]] = True

    found[:] = knees.any(axis=1)
    reflected = (curve, direction) in _REFLECTED
    confirmed[:] = knees[:, ::-1] if reflected else knees
    if select == "prominent":
        chosen_t = np.argmax(np.where(knees, difference, -np.inf), axis=1)
        index[:] = size - 1 - chosen_t if reflected else chosen_t
    else:
        index[:] = np.argmax(confirmed, axis=1)
        chosen_t = size - 1 - index if reflected else index
    chosen_t = np.where(found, chosen_t, 0)
    index[~found] = 0
    prominence[found] = difference[found, chosen_t[found]]
    return batch


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
