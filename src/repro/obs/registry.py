"""Run-scoped metrics registry: counters, gauges, quantile sketches.

The registry is the quantitative half of ``repro.obs``: control loops
and samplers increment counters and observe timings into it, and the
explainability report renders a snapshot at the end of a run.

Two properties matter more than feature count:

- **Near-zero cost when disabled.** A disabled registry hands out
  shared singleton no-op instruments whose methods are empty; call
  sites can keep unconditional ``counter.inc()`` calls on warm paths
  without giving back the PR-2 fast-path wins. Truly hot paths (the
  event loop, the 100 ms samplers) additionally guard on
  ``if obs:`` so even the no-op call is skipped.
- **Bounded memory.** A histogram is the one
  :class:`~repro.obs.sketch.QuantileSketch`: exact count/sum/min/max
  and run-lifetime quantiles in memory that grows with the log of the
  value range, so a week-long run cannot grow the registry without
  bound.
"""

from __future__ import annotations

import typing as _t

from repro.obs.sketch import QuantileSketch


class Counter:
    """A monotonically increasing event count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self.value += amount

    def snapshot(self) -> dict:
        """JSON-ready summary for reports and exposition."""
        return {"type": "counter", "value": self.value}


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = float("nan")

    def set(self, value: float) -> None:
        """Overwrite the gauge with ``value``."""
        self.value = float(value)

    def snapshot(self) -> dict:
        """JSON-ready summary (``None`` value while never set)."""
        value = self.value if self.value == self.value else None
        return {"type": "gauge", "value": value}


class _NullCounter:
    __slots__ = ()
    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def snapshot(self) -> dict:
        return {"type": "counter", "value": 0.0}


class _NullGauge:
    __slots__ = ()
    value = float("nan")

    def set(self, value: float) -> None:
        pass

    def snapshot(self) -> dict:
        return {"type": "gauge", "value": None}


class _NullHistogram:
    __slots__ = ()
    count = 0
    total = 0.0
    mean = float("nan")
    exemplar = None

    def observe(self, value: float, count: int = 1) -> None:
        pass

    def link_exemplar(self, trace_id: int, value: float,
                      timestamp: float) -> None:
        pass

    def quantile(self, q: float) -> float:
        return float("nan")

    def snapshot(self) -> dict:
        return {"type": "histogram", "count": 0}


NULL_COUNTER = _NullCounter()
NULL_GAUGE = _NullGauge()
NULL_HISTOGRAM = _NullHistogram()


class MetricsRegistry:
    """Named instruments for one run.

    ``counter()``/``gauge()``/``histogram()`` create on first use and
    return the existing instrument afterwards, so call sites never need
    registration ceremony. A disabled registry returns the shared
    no-op singletons and records nothing.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._instruments: dict[str, Counter | Gauge | QuantileSketch] = {}

    def __bool__(self) -> bool:
        return self.enabled

    def _get(self, name: str, kind: type, null: object) -> _t.Any:
        if not self.enabled:
            return null
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = kind()
            self._instruments[name] = instrument
        elif not isinstance(instrument, kind):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}, not {kind.__name__}")
        return instrument

    def counter(self, name: str) -> Counter:
        """The counter named ``name`` (created on first use)."""
        return self._get(name, Counter, NULL_COUNTER)

    def gauge(self, name: str) -> Gauge:
        """The gauge named ``name`` (created on first use)."""
        return self._get(name, Gauge, NULL_GAUGE)

    def histogram(self, name: str) -> QuantileSketch:
        """The quantile sketch named ``name`` (created on first use)."""
        return self._get(name, QuantileSketch, NULL_HISTOGRAM)

    def names(self) -> list[str]:
        """Sorted names of every registered instrument."""
        return sorted(self._instruments)

    def snapshot(self) -> dict[str, dict]:
        """JSON-ready ``name -> summary`` for every instrument."""
        return {name: inst.snapshot()
                for name, inst in sorted(self._instruments.items())}
