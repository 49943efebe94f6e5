"""``repro.obs``: unified observability for the Sora reproduction.

One :class:`Observability` object per run bundles the four concerns
the controllers thread through:

- a :class:`~repro.obs.registry.MetricsRegistry` (counters, gauges,
  and :class:`~repro.obs.sketch.QuantileSketch` histograms);
- a :class:`~repro.obs.events.DecisionLog` of typed control-round /
  scale-event / drift records (JSONL-exportable);
- a :class:`~repro.obs.flight.FlightRecorder`, the one wall-clock
  self-timer: per-phase aggregates plus a ring of control rounds as
  span trees (the embedded controller and the service share it and
  its :data:`~repro.obs.flight.PHASES` names);
- :func:`~repro.obs.logconfig.configure_logging` for the ``repro.*``
  stdlib-logging namespace (quiet by default).

The module-level :data:`NULL` instance is the disabled default every
instrumented constructor falls back to. ``Observability`` is truthy
exactly when enabled, so hot call sites guard with ``if self.obs:`` —
one boolean check, which is what keeps the PR-2 fast paths fast.
"""

from __future__ import annotations

import contextlib

from repro.obs.events import (
    AlertRecord,
    ControlRoundRecord,
    DecisionLog,
    DriftRecord,
    FaultRecord,
    ObsRecord,
    ScaleEventRecord,
    TargetDecision,
    record_from_dict,
)
from repro.obs.logconfig import configure_logging, quiet
from repro.obs.flight import PHASES, FlightRecorder
from repro.obs.registry import Counter, Gauge, MetricsRegistry
from repro.obs.sketch import QuantileSketch
from repro.obs.slo import DEFAULT_RULES, BurnRateRule, SLOMonitor, SLOSpec
from repro.obs.timeline import (
    NULL_TIMELINE,
    Annotation,
    SeriesBuffer,
    Timeline,
    annotations_from_log,
)

#: Reusable no-op context manager handed out by disabled phase().
_NULL_CONTEXT = contextlib.nullcontext()


class Observability:
    """Run-scoped observability state (registry + log + recorder).

    Args:
        enabled: master switch; a disabled instance is inert and
            truthiness-false (``if obs:`` guards are near-free).
        max_records: decision-log ring capacity.
        curve_points: how many points of the fitted knee curve each
            decision snapshot keeps (0 disables curve snapshots).
        telemetry: whether the streaming :class:`Timeline` records
            series; ``False`` swaps in the shared no-op
            :data:`~repro.obs.timeline.NULL_TIMELINE` so the harness
            starts no telemetry pump and event streams stay
            byte-identical to a telemetry-free build.
        timeline_capacity: per-series retained-point bound.
    """

    def __init__(self, *, enabled: bool = True, max_records: int = 4096,
                 curve_points: int = 32, telemetry: bool = True,
                 timeline_capacity: int = 720) -> None:
        if curve_points < 0:
            raise ValueError(
                f"curve_points must be >= 0, got {curve_points}")
        self.enabled = enabled
        self.curve_points = curve_points
        self.registry = MetricsRegistry(enabled=enabled)
        self.decisions = DecisionLog(max_records=max_records)
        #: Phase timings and self-traced rounds; a service replaces it
        #: with a recorder sized by its own round-ring setting.
        self.flight = FlightRecorder() if enabled else FlightRecorder(0)
        self.timeline = (Timeline(capacity=timeline_capacity)
                         if enabled and telemetry else NULL_TIMELINE)
        #: SLO monitor attached by the harness when the scenario
        #: carries an SLO spec (or restored by persistence).
        self.slo: SLOMonitor | None = None
        #: Streaming critical-path aggregator + trace sampler, attached
        #: via :meth:`attach_trace_analytics` when the run's warehouse
        #: samples traces. Pure observers: exporters/dashboards read
        #: them, the simulation never does.
        self.trace_analytics = None
        self.trace_sampler = None

    def attach_trace_analytics(self, warehouse) -> None:
        """Expose a warehouse's sampler/aggregator to the exporters.

        Call after :meth:`repro.tracing.TraceWarehouse.attach` so the
        OpenMetrics export, dashboard flame view, and report sections
        can render the streaming trace analytics.
        """
        self.trace_analytics = warehouse.analytics
        self.trace_sampler = warehouse.sampler
        if self.enabled and warehouse.analytics is not None:
            # The aggregator's end-to-end duration sketch *is* the
            # registry's trace.latency histogram, its slowest trace the
            # exemplar on the _count sample of the export (call before
            # the first trace finishes).
            warehouse.analytics.duration = self.registry.histogram(
                "trace.latency")

    def __bool__(self) -> bool:
        return self.enabled

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(self, record: ObsRecord) -> None:
        """Append a typed record to the decision log (no-op when
        disabled)."""
        if self.enabled:
            self.decisions.append(record)

    def phase(self, name: str):
        """Context manager timing one named control phase."""
        if not self.enabled:
            return _NULL_CONTEXT
        return self.flight.phase(name)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """JSON-ready snapshot of everything but the decision log."""
        return {
            "metrics": self.registry.snapshot(),
            "phases": self.flight.phase_summary(),
            "slo": (self.slo.state_dict()
                    if self.slo is not None else None),
        }


#: Shared disabled instance: the default for every instrumented
#: constructor. Never records, never times, never allocates.
NULL = Observability(enabled=False)

from repro.obs.dashboard import (  # noqa: E402
    render_dashboard_html,
    render_sparklines,
)
from repro.obs.openmetrics import (  # noqa: E402
    parse_openmetrics,
    render_openmetrics,
)
from repro.obs.report import render_html, render_text  # noqa: E402

__all__ = [
    "DEFAULT_RULES",
    "NULL",
    "NULL_TIMELINE",
    "AlertRecord",
    "Annotation",
    "BurnRateRule",
    "ControlRoundRecord",
    "Counter",
    "DecisionLog",
    "DriftRecord",
    "FaultRecord",
    "FlightRecorder",
    "Gauge",
    "MetricsRegistry",
    "ObsRecord",
    "Observability",
    "PHASES",
    "QuantileSketch",
    "SLOMonitor",
    "SLOSpec",
    "ScaleEventRecord",
    "SeriesBuffer",
    "TargetDecision",
    "Timeline",
    "annotations_from_log",
    "configure_logging",
    "parse_openmetrics",
    "quiet",
    "record_from_dict",
    "render_dashboard_html",
    "render_html",
    "render_openmetrics",
    "render_sparklines",
    "render_text",
]
