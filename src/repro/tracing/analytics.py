"""Streaming critical-path analytics (CRISP-style aggregation).

The exhaustive pipeline — the warehouse stores every trace and
localization reduces a window of them per control round — does not
survive sampling or fleet-scale trace volume. This module folds each finished trace's
critical path into bounded-memory aggregates *before* any sampling
decision, so localization and the explainability report can run off
aggregates even when the warehouse stores 5% of traces:

* per-service quantile sketches
  (:class:`~repro.obs.sketch.QuantileSketch`) of critical-path **self
  time** (the paper's :math:`PT_{s_i}`), and running means of
  **contribution** (self time as a fraction of path duration);
* streaming Pearson accumulators per service over the same
  ``(PT_s, RT_CP)`` pairs the exhaustive
  :meth:`~repro.core.localization.CriticalServiceLocator.locate` uses;
* a space-saving **top-K path-pattern table** (path services tuple →
  count, mean duration) standing in for exhaustive
  :func:`~repro.tracing.critical_path.critical_path_frequencies`;
* **exemplar** trace ids — the slowest end-to-end trace and the
  slowest self-time trace per service — which the OpenMetrics export
  attaches to latency histogram samples and the dashboard links.

Everything is O(services + K) memory and O(path length) per trace.
The aggregator is a pure observer: it reads finished span trees and
never touches simulation state, so attaching it cannot perturb replay
fingerprints.
"""

from __future__ import annotations

import math
import typing as _t

from repro.obs.sketch import Exemplar, QuantileSketch
from repro.tracing.critical_path import CriticalPath
from repro.tracing.span import Span

#: Quantiles the exporters report for every sketch in the aggregator.
QUANTILES = (0.5, 0.95, 0.99)


class StreamingPearson:
    """Pearson correlation from running moments, O(1) memory.

    Matches :func:`repro.analysis.correlation.pearson` semantics:
    fewer than two samples, or zero variance in either coordinate,
    yields 0.0.
    """

    __slots__ = ("n", "sx", "sy", "sxx", "syy", "sxy")

    def __init__(self) -> None:
        self.n = 0
        self.sx = self.sy = self.sxx = self.syy = self.sxy = 0.0

    def add(self, x: float, y: float) -> None:
        """Fold one ``(x, y)`` observation into the moments."""
        self.n += 1
        self.sx += x
        self.sy += y
        self.sxx += x * x
        self.syy += y * y
        self.sxy += x * y

    def state_dict(self) -> list[float]:
        """The six running moments, JSON-ready and bit-exact."""
        return [self.n, self.sx, self.sy, self.sxx, self.syy, self.sxy]

    def load_state(self, state: _t.Sequence[float]) -> None:
        """Inverse of :meth:`state_dict`."""
        self.n = int(state[0])
        (self.sx, self.sy, self.sxx,
         self.syy, self.sxy) = (float(v) for v in state[1:6])

    def value(self) -> float:
        """Pearson correlation over everything added so far."""
        n = self.n
        if n < 2:
            return 0.0
        cov = n * self.sxy - self.sx * self.sy
        var_x = n * self.sxx - self.sx * self.sx
        var_y = n * self.syy - self.sy * self.sy
        denom = math.sqrt(max(0.0, var_x) * max(0.0, var_y))
        if denom == 0.0:
            return 0.0
        return max(-1.0, min(1.0, cov / denom))


class TopKPaths:
    """Space-saving heavy-hitter table over critical-path patterns.

    Bounded at ``capacity`` entries: when a new pattern arrives at a
    full table, the minimum-count entry is replaced and the newcomer
    inherits its count (+1) with that count recorded as ``error`` —
    the standard Metwally et al. guarantee that true counts are
    over-estimated by at most ``error``.
    """

    def __init__(self, capacity: int = 32) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        # pattern -> [count, error, duration_sum]
        self._table: dict[tuple[str, ...], list[float]] = {}

    def offer(self, pattern: tuple[str, ...], duration: float) -> None:
        """Count one occurrence of ``pattern`` (space-saving sketch)."""
        entry = self._table.get(pattern)
        if entry is not None:
            entry[0] += 1
            entry[2] += duration
            return
        if len(self._table) < self.capacity:
            self._table[pattern] = [1, 0, duration]
            return
        victim = min(self._table, key=lambda k: self._table[k][0])
        count, _error, _dsum = self._table.pop(victim)
        self._table[pattern] = [count + 1, count, duration]

    def top(self, k: int | None = None) -> list[dict]:
        """Patterns by descending estimated count, JSON-ready."""
        ranked = sorted(self._table.items(),
                        key=lambda kv: (-kv[1][0], kv[0]))
        if k is not None:
            ranked = ranked[:k]
        return [
            {"services": list(pattern), "count": int(count),
             "error": int(error),
             "mean_duration": dsum / count if count else 0.0}
            for pattern, (count, error, dsum) in ranked
        ]

    def frequencies(self) -> dict[tuple[str, ...], int]:
        """Estimated counts keyed by pattern (localization shape)."""
        return {pattern: int(entry[0])
                for pattern, entry in self._table.items()}

    def state_dict(self) -> dict:
        """JSON-ready exact state, insertion order preserved.

        Order matters: eviction ties in :meth:`offer` break on dict
        iteration order, so a restored table must replay insertions in
        the original sequence to stay byte-deterministic.
        """
        return {
            "capacity": self.capacity,
            "table": [[list(pattern), count, error, dsum]
                      for pattern, (count, error, dsum)
                      in self._table.items()],
        }

    def load_state(self, state: dict) -> None:
        """Inverse of :meth:`state_dict`."""
        self.capacity = int(state["capacity"])
        self._table = {
            tuple(pattern): [count, error, dsum]
            for pattern, count, error, dsum in state["table"]
        }

    def __len__(self) -> int:
        return len(self._table)


class MeanAccumulator:
    """Running count/mean, the cheap sibling of a quantile sketch.

    Contribution fractions only ever surface as means (the report
    column), so a quantile sketch for them would double the per-trace
    sketch cost for nothing.
    """

    __slots__ = ("count", "_total")

    def __init__(self) -> None:
        self.count = 0
        self._total = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self._total += value

    @property
    def mean(self) -> float:
        return self._total / self.count if self.count else 0.0

    def state_dict(self) -> list[float]:
        return [self.count, self._total]

    def load_state(self, state: _t.Sequence[float]) -> None:
        self.count = int(state[0])
        self._total = float(state[1])


class CriticalPathAggregator:
    """Folds finished traces into per-service critical-path aggregates.

    Args:
        top_k: capacity of the path-pattern heavy-hitter table.
    """

    def __init__(self, top_k: int = 32) -> None:
        self.traces_observed = 0
        #: End-to-end critical-path duration sketch (RT_CP), its
        #: exemplar the slowest trace; an observability scope installs
        #: its ``trace.latency`` histogram here.
        self.duration = QuantileSketch()
        #: service -> PT_s sketch along critical paths.
        self.self_time: dict[str, QuantileSketch] = {}
        #: service -> PT_s / RT_CP contribution-fraction mean.
        self.contribution: dict[str, MeanAccumulator] = {}
        #: service -> streaming PCC(PT_s, RT_CP).
        self._pearson: dict[str, StreamingPearson] = {}
        self.paths = TopKPaths(capacity=top_k)
        #: service -> slowest critical-path self-time exemplar.
        self.slowest_by_service: dict[str, Exemplar] = {}

    @property
    def slowest(self) -> Exemplar | None:
        """Slowest end-to-end trace seen so far."""
        return self.duration.exemplar

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def observe(self, root: Span, path: CriticalPath) -> None:
        """Fold one finished trace into the aggregates.

        ``path`` is ``root``'s critical path, extracted once by the
        caller (the warehouse and the control plane store it too).
        """
        duration = path.duration
        departed = _t.cast(float, root.departure)
        self.traces_observed += 1
        self.duration.observe(duration)
        self.duration.link_exemplar(root.trace_id, duration, departed)
        self.paths.offer(path.services, duration)
        inv = 1.0 / duration if duration > 0.0 else 0.0
        self_time = self.self_time
        contribution = self.contribution
        pearson = self._pearson
        slowest_by_service = self.slowest_by_service
        for service, pt in zip(path.services, path.processing):
            sketch = self_time.get(service)
            if sketch is None:
                sketch = self_time[service] = QuantileSketch()
                contribution[service] = MeanAccumulator()
                pearson[service] = StreamingPearson()
            sketch.observe(pt)
            contribution[service].observe(pt * inv)
            pearson[service].add(pt, duration)
            best = slowest_by_service.get(service)
            if best is None or pt > best.value:
                slowest_by_service[service] = Exemplar(
                    root.trace_id, pt, departed)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def services(self) -> list[str]:
        """Services seen on any critical path, sorted."""
        return sorted(self.self_time)

    def correlations(self) -> dict[str, float]:
        """Streaming PCC(PT_s, RT_CP) per service."""
        return {service: acc.value()
                for service, acc in self._pearson.items()}

    def path_frequencies(self) -> dict[tuple[str, ...], int]:
        """Estimated critical-path pattern counts (top-K table)."""
        return self.paths.frequencies()

    def state_dict(self) -> dict:
        """Exact aggregate state for checkpoint/restore.

        Everything a restored aggregator needs to keep producing the
        same correlations, path frequencies, sketches and exemplars it
        would have produced without the restart.
        """
        return {
            "traces_observed": self.traces_observed,
            "duration": self.duration.state_dict(),
            "self_time": {service: sketch.state_dict()
                          for service, sketch in self.self_time.items()},
            "contribution": {service: acc.state_dict()
                             for service, acc
                             in self.contribution.items()},
            "pearson": {service: acc.state_dict()
                        for service, acc in self._pearson.items()},
            "paths": self.paths.state_dict(),
            "slowest": (list(self.slowest)
                        if self.slowest is not None else None),
            "slowest_by_service": {
                service: list(exemplar)
                for service, exemplar
                in self.slowest_by_service.items()},
        }

    def load_state(self, state: dict) -> None:
        """Inverse of :meth:`state_dict`. The duration sketch loads in
        place, so a registry holding it keeps seeing the aggregator's."""
        self.traces_observed = int(state["traces_observed"])
        self.duration.load_state(state["duration"])
        self.self_time = {
            service: QuantileSketch.from_state(sketch_state)
            for service, sketch_state in state["self_time"].items()}
        self.contribution = {}
        for service, acc_state in state["contribution"].items():
            acc = MeanAccumulator()
            acc.load_state(acc_state)
            self.contribution[service] = acc
        self._pearson = {}
        for service, moments in state["pearson"].items():
            acc = StreamingPearson()
            acc.load_state(moments)
            self._pearson[service] = acc
        self.paths.load_state(state["paths"])
        self.duration.exemplar = (
            Exemplar(int(state["slowest"][0]), float(state["slowest"][1]),
                     float(state["slowest"][2]))
            if state["slowest"] is not None else None)
        self.slowest_by_service = {
            service: Exemplar(int(raw[0]), float(raw[1]), float(raw[2]))
            for service, raw in state["slowest_by_service"].items()}
