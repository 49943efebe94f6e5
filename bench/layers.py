"""Per-layer tracing for the benchmark, measured from outside the program.

For a traced run, :meth:`Tracer.install` replaces the public functions
listed in :data:`LAYERS` (class or module attributes) with timing
wrappers, and :meth:`Tracer.uninstall` puts the originals back. Nothing
in the program changes: an untraced run never installs a wrapper.

Spans are kept in memory as ``(id, parent, name, start, end)`` tuples
(at most :data:`SPAN_CAP` per name, so the hottest leaf functions cannot
exhaust memory) and written as JSON lines when the run ends. Counts,
total time and self time (a span's duration minus the part its child
spans cover) are accumulated exactly for every call, kept or not.

A wrapper only records while a root span is open (:meth:`Tracer.root`),
so calls made while a scenario is built or a plane warms up stay out of
the ledger.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import importlib
import itertools
import json
import pathlib
import time
import typing as _t

#: ``(layer name, module, class or None for a module function, attribute,
#: counts truthy results)``. The names are the per-layer metric prefixes.
LAYERS: tuple[tuple[str, str, str | None, str, bool], ...] = (
    ("sim.run", "repro.sim.engine", "Environment", "run", False),
    ("resources.cpu.submit", "repro.resources.cpu",
     "ProcessorSharingCpu", "submit", False),
    ("resources.pool.acquire", "repro.resources.pool",
     "SoftResourcePool", "acquire", False),
    ("resources.pool.release", "repro.resources.pool",
     "SoftResourcePool", "release", False),
    ("core.control", "repro.core.sora",
     "ConcurrencyAdaptationFramework", "control", False),
    ("core.localize", "repro.core.localization",
     "CriticalServiceLocator", "locate", False),
    ("core.localize_from_aggregate", "repro.core.localization",
     "CriticalServiceLocator", "locate_from_aggregate", False),
    ("core.propagate", "repro.core.deadline",
     "DeadlinePropagator", "propagate", False),
    # A non-None estimate is the useful outcome of an SCG fit.
    ("core.scg.estimate", "repro.core.scg",
     "ScatterCurveModel", "estimate", True),
    ("autoscalers.control", "repro.autoscalers.firm",
     "FirmAutoscaler", "control", False),
    ("autoscalers.control", "repro.autoscalers.hpa",
     "HorizontalPodAutoscaler", "control", False),
    ("autoscalers.control", "repro.autoscalers.vpa",
     "VerticalPodAutoscaler", "control", False),
    ("tracing.warehouse.record", "repro.tracing.warehouse",
     "TraceWarehouse", "record", False),
    ("tracing.warehouse.traces", "repro.tracing.warehouse",
     "TraceWarehouse", "traces", False),
    ("tracing.analytics.observe", "repro.tracing.analytics",
     "CriticalPathAggregator", "observe", False),
    # True means the sampler kept the trace.
    ("tracing.sampler.sample", "repro.tracing.sampling",
     "TraceSampler", "sample", True),
    ("obs.timeline.record", "repro.obs.timeline", "Timeline", "record",
     False),
    ("obs.slo.observe", "repro.obs.slo", "SLOMonitor", "observe", False),
    # The names bound in repro.service.control are the ones the plane
    # calls, so those are the attributes to replace.
    ("service.parse_metrics", "repro.service.control", None,
     "parse_metrics_snapshot", False),
    ("service.parse_traces", "repro.service.control", None,
     "parse_trace_batch", False),
    ("service.ingest_metrics", "repro.service.control", "ControlPlane",
     "ingest_metrics", False),
    ("service.ingest_traces", "repro.service.control", "ControlPlane",
     "ingest_traces", False),
    ("service.tick", "repro.service.control", "ControlPlane", "tick",
     False),
    ("service.flight.record_round", "repro.service.flight",
     "FlightRecorder", "record_round", False),
    ("service.audit.record", "repro.service.audit", "AuditJournal",
     "record", False),
    ("service.openmetrics", "repro.service.control", "ControlPlane",
     "openmetrics", False),
)

#: Layers whose wrapped functions call other wrapped functions; they
#: also report ``total_pct`` (self plus children).
NESTING = ("core.control", "autoscalers.control",
           "tracing.warehouse.record", "service.ingest_metrics",
           "service.ingest_traces", "service.tick")

#: HTTP routes of the mixed workload, as ``route -> metric name``.
ROUTES = {
    "/ingest/openmetrics": "ingest_openmetrics",
    "/ingest/jaeger": "ingest_jaeger",
    "/recommendations": "recommendations",
    "/metrics": "metrics",
    "/control/tick": "control_tick",
}

#: The root span every in-process traced run opens around its timed part.
ROOT = "bench"

#: The root span a traced server holds open for its whole life.
SERVER_ROOT = "server"

#: Per-layer metrics the workloads measure themselves (0 where a
#: workload has no such thing, e.g. HTTP counts in a simulation).
EXTRA = ("sim.events", "http.self_pct", "http.status.2xx",
         "http.status.other", "gen.late_pct", "trace_overhead_pct")

#: Spans kept per name; counts and times stay exact beyond it.
SPAN_CAP = 20_000


def per_layer_spec() -> list[tuple[str, str, str]]:
    """``(metric, unit, better)`` for every per-layer metric, in order."""
    spec = [("sim.run.self_pct", "%", "lower"),
            ("sim.events", "count", "lower")]
    seen = set()
    for name, _module, _owner, _attr, _hits in LAYERS:
        if name in seen or name == "sim.run":
            continue
        seen.add(name)
        spec.append((f"{name}.calls", "count", "lower"))
        spec.append((f"{name}.self_pct", "%", "lower"))
        if name in NESTING:
            spec.append((f"{name}.total_pct", "%", "lower"))
        if name == "core.scg.estimate":
            spec.append(("core.scg.found_ratio", "ratio", "higher"))
        if name == "tracing.sampler.sample":
            spec.append(("tracing.sampler.kept_ratio", "ratio", "lower"))
    spec.append(("http.self_pct", "%", "lower"))
    for route in ROUTES.values():
        spec.append((f"http.{route}.pct", "%", "lower"))
    spec += [("http.status.2xx", "count", "higher"),
             ("http.status.other", "count", "lower"),
             ("gen.late_pct", "%", "lower"),
             ("bench.self_pct", "%", "lower"),
             ("trace_overhead_pct", "%", "lower")]
    return spec


class Tracer:
    """Span recorder with exact per-name counts, totals and self times.

    At most :data:`SPAN_CAP` spans are kept per name; the aggregates stay
    exact beyond it.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.hits: list[int] = []
        self.kept: list[int] = []
        #: ``(id, parent id, name index, start, end)``; parent 0 = none.
        self.spans: list[tuple[int, int, int, float, float]] = []
        self._ids = itertools.count(1)
        #: Open frames: ``[child seconds, span id]``.
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []

    def _name(self, name: str) -> int:
        index = self._index.get(name)
        if index is None:
            index = self._index[name] = len(self.names)
            self.names.append(name)
            for column in (self.calls, self.hits, self.kept):
                column.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        return index

    # ------------------------------------------------------------------
    # Installing wrappers
    # ------------------------------------------------------------------
    def install(self) -> "Tracer":
        """Wrap every function in :data:`LAYERS`; call once, then
        :meth:`uninstall`."""
        for name, module_name, owner_name, attr, hits in LAYERS:
            module = importlib.import_module(module_name)
            owner = (getattr(module, owner_name) if owner_name
                     else module)
            original = (owner.__dict__[attr] if owner_name
                        else getattr(module, attr))
            self._patched.append((owner, attr, original))
            setattr(owner, attr,
                    self._wrap(original, self._name(name), hits))
        return self

    def uninstall(self) -> None:
        """Restore every wrapped function."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrap(self, fn: _t.Callable, index: int,
              count_hits: bool) -> _t.Callable:
        stack = self._stack
        clock = time.perf_counter
        ids = self._ids
        calls, total, self_time = self.calls, self.total, self.self_time
        hits, kept, spans, cap = self.hits, self.kept, self.spans, SPAN_CAP

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            frame = [0.0, next(ids)]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                parent = stack[-1]
                parent[0] += elapsed
                calls[index] += 1
                total[index] += elapsed
                self_time[index] += elapsed - frame[0]
                if kept[index] < cap:
                    kept[index] += 1
                    spans.append((frame[1], parent[1], index, start, end))
            if count_hits and result:
                hits[index] += 1
            return result

        return traced

    @contextlib.contextmanager
    def root(self, name: str = ROOT):
        """Open the root span; wrappers record only inside it."""
        if self._stack:
            raise RuntimeError("a root span is already open")
        index = self._name(name)
        frame = [0.0, next(self._ids)]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.calls[index] += 1
            self.total[index] += end - start
            self.self_time[index] += end - start - frame[0]
            self.spans.append((frame[1], 0, index, start, end))

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def summary(self) -> dict[str, dict[str, float]]:
        """``name -> {calls, total_s, self_s, hits}``."""
        return {name: {"calls": self.calls[i], "total_s": self.total[i],
                       "self_s": self.self_time[i], "hits": self.hits[i]}
                for i, name in enumerate(self.names)}

    def dump(self) -> dict:
        """JSON-ready state, for handing a server's ledger to the client."""
        return {"summary": self.summary(), "names": self.names,
                "spans": [list(span) for span in self.spans]}


def write_spans(path: pathlib.Path,
                sources: _t.Iterable[tuple[str, list[str], list]]) -> int:
    """Write ``(process, names, spans)`` sources to one JSONL file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    written = 0
    with path.open("w", encoding="utf-8") as handle:
        for process, names, spans in sources:
            for span_id, parent, index, start, end in spans:
                handle.write(json.dumps(
                    {"proc": process, "id": span_id, "parent": parent,
                     "name": names[index], "start": start, "end": end})
                    + "\n")
                written += 1
    return written


def fold_server(requests: list[tuple[int, float, float]], server: dict
                ) -> tuple[dict[str, dict[str, float]], list[float],
                           list[tuple], int]:
    """Place a traced server's spans under the client's request spans.

    ``requests`` are ``(id, start, end)`` of the client's request spans,
    sorted by start and not overlapping (one connection at a time). A
    server span whose parent is the server's root becomes a child of the
    request span that contains it in time: ``perf_counter`` reads
    CLOCK_MONOTONIC on Linux, so both processes share one clock. Server
    span ids are shifted past the largest client id.

    Returns the server summary without its root, the server time inside
    each request span (in ``requests`` order), the re-parented server
    spans, and how many server top-level spans no request contained.
    """
    names = server["names"]
    root_ids = {span[0] for span in server["spans"]
                if names[span[2]] == SERVER_ROOT}
    offset = max((span_id for span_id, _start, _end in requests),
                 default=0)
    starts = [start for _id, start, _end in requests]
    covered = [0.0] * len(requests)
    uncontained = 0
    spans = []
    for span_id, parent, index, start, end in server["spans"]:
        if span_id in root_ids:
            continue
        if parent in root_ids:
            slot = bisect.bisect_right(starts, start) - 1
            if slot >= 0 and end <= requests[slot][2]:
                covered[slot] += end - start
                parent = requests[slot][0]
            else:
                uncontained += 1
                parent = 0
        else:
            parent += offset
        spans.append((span_id + offset, parent, index, start, end))
    summary = {name: stats for name, stats in server["summary"].items()
               if name != SERVER_ROOT}
    return summary, covered, spans, uncontained


def layer_metrics(summary: dict[str, dict[str, float]], wall_s: float,
                  extra: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric value from a run's merged summary.

    Time shares are percentages of ``wall_s``, the traced part's wall
    time; layers the workload never reached read 0. ``extra`` supplies
    the values the summary cannot (:data:`EXTRA`).
    """
    values: dict[str, float] = {}
    for metric, _unit, _better in per_layer_spec():
        if metric in EXTRA:
            values[metric] = extra.get(metric, 0)
            continue
        layer, _sep, field = metric.rpartition(".")
        stats = summary.get(layer)
        if field == "calls":
            values[metric] = stats["calls"] if stats else 0
        elif field == "self_pct":
            values[metric] = (100.0 * stats["self_s"] / wall_s
                              if stats else 0.0)
        elif field in ("total_pct", "pct"):
            values[metric] = (100.0 * stats["total_s"] / wall_s
                              if stats else 0.0)
        elif metric == "core.scg.found_ratio":
            estimate = summary.get("core.scg.estimate")
            values[metric] = (estimate["hits"] / estimate["calls"]
                              if estimate and estimate["calls"] else 0.0)
        elif metric == "tracing.sampler.kept_ratio":
            sample = summary.get("tracing.sampler.sample")
            values[metric] = (sample["hits"] / sample["calls"]
                              if sample and sample["calls"] else 0.0)
        else:
            raise KeyError(f"no value for per-layer metric {metric!r}")
    return values
