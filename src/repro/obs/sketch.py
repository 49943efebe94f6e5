"""Streaming quantiles: one log-bucketed, relative-error sketch.

The telemetry pipeline needs latency percentiles *while the run
unfolds* — per-service critical-path self times, end-to-end durations,
the controller's own recommendation latency — without retaining every
raw sample. :class:`QuantileSketch` is the one mechanism for all of
them, in the style of DDSketch (Masson et al., VLDB 2019): a value
``v > 0`` lands in the integer bucket ``ceil(log(v) / log(gamma))``
with ``gamma = (1 + ALPHA) / (1 - ALPHA)``, zeros in a bucket of their
own, so every quantile is answered to within relative error
:data:`ALPHA` of an observed value at that rank.

An insert is one ``log`` and one dict update, and a count-weighted
insert (``observe(v, n)``) costs the same, so a batch of identical
values is one call. Memory grows with the log of the value range
(about 115 buckets per decade), not with the number of observations.
Count, sum, min and max are exact; quantiles are clamped to the
observed ``[min, max]``.

The metrics registry hands out this class as its histogram instrument,
so it carries one optional exemplar slot (the worst observation with a
trace attached) for the OpenMetrics exposition.
"""

from __future__ import annotations

import math
import sys
import typing as _t

__all__ = ["ALPHA", "Exemplar", "QuantileSketch"]

#: Relative accuracy of every quantile estimate.
ALPHA = 0.01
_GAMMA = (1.0 + ALPHA) / (1.0 - ALPHA)
_LOG_GAMMA = math.log(_GAMMA)
#: Log of the value a bucket reports, relative to its upper bound
#: ``gamma**i``: ``2 * gamma**i / (gamma + 1)`` sits within ALPHA of
#: every value in ``(gamma**(i-1), gamma**i]``.
_LOG_MIDPOINT = math.log(2.0 / (_GAMMA + 1.0))
_LOG_MAX_FLOAT = math.log(sys.float_info.max)
_INF = math.inf


class Exemplar(_t.NamedTuple):
    """A trace id pinned to a metric value, OpenMetrics-style."""

    trace_id: int
    value: float
    timestamp: float


class QuantileSketch:
    """Count-weighted quantile sketch over finite values ``>= 0``.

    ``quantile(q)`` answers any ``q`` in ``[0, 1]``: the estimate lies
    within relative error :data:`ALPHA` of the observation at rank
    ``floor(q * (count - 1))``.
    """

    __slots__ = ("count", "total", "min", "max", "zero", "bins",
                 "exemplar")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = _INF
        self.max = -_INF
        #: Observations equal to zero.
        self.zero = 0
        #: Bucket index -> count, for positive observations.
        self.bins: dict[int, int] = {}
        #: The largest value linked to a trace (see
        #: :meth:`link_exemplar`); not part of :meth:`state_dict`.
        self.exemplar: Exemplar | None = None

    @property
    def mean(self) -> float:
        """Running mean (NaN before any observation)."""
        return self.total / self.count if self.count else float("nan")

    def observe(self, value: float, count: int = 1) -> None:
        """Fold ``count >= 1`` observations of ``value`` into the
        sketch.

        Raises:
            ValueError: ``value`` is NaN, infinite or negative.
        """
        value = float(value)
        if not 0.0 <= value < _INF:
            raise ValueError(
                f"sketch values must be finite and >= 0, got {value!r}")
        self.count += count
        self.total += value * count
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value > 0.0:
            index = math.ceil(math.log(value) / _LOG_GAMMA)
            bins = self.bins
            bins[index] = bins.get(index, 0) + count
        else:
            self.zero += count

    def quantile(self, q: float) -> float:
        """The ``q``-quantile estimate (NaN before any observation)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            return float("nan")
        rank = q * (self.count - 1)
        seen = self.zero
        estimate = 0.0
        if seen <= rank:
            bins = self.bins
            for index in sorted(bins):
                seen += bins[index]
                if seen > rank:
                    break
            estimate = math.exp(min(index * _LOG_GAMMA + _LOG_MIDPOINT,
                                    _LOG_MAX_FLOAT))
        return min(max(estimate, self.min), self.max)

    def link_exemplar(self, trace_id: int, value: float,
                      timestamp: float) -> None:
        """Pin a trace id to ``value``; the largest-valued link wins."""
        if self.exemplar is None or value > self.exemplar.value:
            self.exemplar = Exemplar(int(trace_id), float(value),
                                     float(timestamp))

    def state_dict(self) -> dict:
        """JSON-ready exact state (buckets ascending by index)."""
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "zero": self.zero,
            "bins": [[index, self.bins[index]]
                     for index in sorted(self.bins)],
        }

    def load_state(self, state: dict) -> None:
        """Inverse of :meth:`state_dict`, in place (keeps the
        exemplar)."""
        self.count = int(state["count"])
        self.total = float(state["sum"])
        self.min = float(state["min"])
        self.max = float(state["max"])
        self.zero = int(state["zero"])
        self.bins = {int(index): int(count)
                     for index, count in state["bins"]}

    @classmethod
    def from_state(cls, state: dict) -> "QuantileSketch":
        """A new sketch holding :meth:`state_dict` output ``state``."""
        sketch = cls()
        sketch.load_state(state)
        return sketch

    def snapshot(self) -> dict:
        """JSON-ready summary: exact count/mean/min/max, P50/P95, and
        the exemplar when one is linked."""
        if not self.count:
            return {"type": "histogram", "count": 0}
        snap = {
            "type": "histogram",
            "count": self.count,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.5),
            "p95": self.quantile(0.95),
        }
        if self.exemplar is not None:
            snap["exemplar"] = self.exemplar._asdict()
        return snap
