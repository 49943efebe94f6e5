"""Domain model of the standalone control-plane service.

The service layer turns the in-simulator adaptation framework into a
long-lived controller any system can point telemetry at. This module
holds the *domain* vocabulary that the ingestion adapters and the
control application layer share — deliberately free of HTTP, asyncio,
and persistence concerns:

- :class:`ServiceConfig` — every tunable of the online pipeline
  (metric family names, SLA, cadence, scatter-model knobs, bounds);
- :class:`SeriesState` — the bounded streaming state kept per
  monitored service (windowed ``<concurrency, goodput>`` pairs plus
  the latest utilization/allocation readings);
- :class:`Recommendation` — one SCG-backed soft-resource verdict,
  JSON-ready for the API layer;
- :class:`IngestError` — the typed rejection taxonomy every adapter
  raises, so the API layer can map causes onto status codes without
  string matching.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass, field

import numpy as np

from repro.core.deadline import check_floor_fraction
from repro.core.scg import ScatterModelConfig
from repro.metrics.sampler import TimeSeries

__all__ = [
    "IngestError",
    "Recommendation",
    "SeriesState",
    "ServiceConfig",
]

#: Rejection causes an adapter may raise (``IngestError.code``).
IngestErrorCode = _t.Literal[
    "bad-openmetrics",   # strict parser rejected the exposition text
    "bad-json",          # trace batch is not valid JSON
    "bad-jaeger",        # JSON parsed but the Jaeger shape is broken
    "missing-family",    # required metric family absent from snapshot
    "missing-label",     # sample lacks the identifying service label
    "backpressure",      # ingestion outpaced the control cadence
    "series-limit",      # snapshot would exceed the tracked-series cap
    "stale-snapshot",    # snapshot time precedes already-observed samples
]


class IngestError(ValueError):
    """A rejected ingest payload, tagged with a machine-readable cause.

    Attributes:
        code: one of the :data:`IngestErrorCode` literals; the API
            layer maps ``"backpressure"`` to HTTP 429 and everything
            else to HTTP 400.
        detail: human-readable explanation (for OpenMetrics payloads
            this preserves the strict parser's original message, so the
            established error taxonomy — "bad sample", "bad comment",
            "missing # EOF terminator", ... — surfaces verbatim).
    """

    def __init__(self, code: IngestErrorCode, detail: str) -> None:
        super().__init__(f"{code}: {detail}")
        self.code = code
        self.detail = detail

    def to_dict(self) -> dict:
        """JSON-ready error body for the API layer."""
        return {"error": self.code, "detail": self.detail}


def _default_scatter() -> ScatterModelConfig:
    # Snapshots arrive at whatever cadence the external scraper runs
    # (seconds, not the simulator's 100 ms), so the service needs fewer
    # raw pairs and a coarser concurrency grid than the embedded
    # controller to reach a verdict in a reasonable number of scrapes.
    return ScatterModelConfig(min_samples=30, min_distinct=5,
                              quantum=1.0)


@dataclass(frozen=True)
class ServiceConfig:
    """Every knob of the online adaptation pipeline.

    Attributes:
        sla: end-to-end SLA in seconds (deadline-propagation input).
        floor_fraction: propagated thresholds never drop below
            ``floor_fraction * sla``; must lie in ``[0, 1)``.
        utilization_threshold: localization screening bound (§3.2
            step 1).
        cadence: *logical* seconds a control round advances the
            service clock when the caller does not supply a time.
        window: logical seconds of ``<Q, GP>`` pairs a round consumes.
        trace_window: finished trace roots retained for deadline
            propagation (localization itself is streaming and
            unbounded-window by design).
        max_pending: accepted metric snapshots allowed to queue
            between control rounds before ingestion is pushed back
            (HTTP 429) — the service refuses to buffer unboundedly
            when ingestion outpaces the control cadence.
        max_series: cap on distinct monitored services.
        decide_top_k: how many correlation-ranked services receive an
            estimate per round (``0`` = every series with data; the
            service-SLO bench uses this to stress thousands of
            estimates per round).
        min_allocation / max_allocation: recommendation clamp.
        exclude: services never nominated (e.g. the front-end).
        concurrency_family / rate_family / utilization_family /
        allocation_family / time_family: OpenMetrics family names the
            snapshot adapter reads. Concurrency and rate are required;
            utilization, allocation, and the logical-clock family are
            optional enrichments.
        service_label: label key identifying the service on each
            sample.
        latency_slo: controller-on-controller objective — the wall
            seconds one recommendation may take; compliance is tracked
            by the service's own SLO monitor and exported over
            OpenMetrics.
        flight_rounds: control rounds the self-tracing flight recorder
            retains as span trees (served via ``/debug/rounds``);
            ``0`` disables self-tracing entirely — the control path
            then carries only a single truthiness check and decision
            records are byte-identical either way.
        scatter: SCG scatter-model tuning (degree range, minimum
            evidence, knee quality).
    """

    sla: float = 0.4
    floor_fraction: float = 0.1
    utilization_threshold: float = 0.7
    cadence: float = 15.0
    window: float = 120.0
    trace_window: int = 512
    max_pending: int = 256
    max_series: int = 4096
    decide_top_k: int = 1
    min_allocation: int = 1
    max_allocation: int = 512
    exclude: tuple[str, ...] = ()
    concurrency_family: str = "sora_concurrency"
    rate_family: str = "sora_goodput"
    utilization_family: str = "sora_utilization"
    allocation_family: str = "sora_allocation"
    time_family: str = "sora_now"
    service_label: str = "service"
    latency_slo: float = 0.25
    flight_rounds: int = 256
    scatter: ScatterModelConfig = field(default_factory=_default_scatter)

    def __post_init__(self) -> None:
        if self.sla <= 0:
            raise ValueError(f"sla must be positive, got {self.sla}")
        if self.cadence <= 0:
            raise ValueError(
                f"cadence must be positive, got {self.cadence}")
        if self.window <= 0:
            raise ValueError(
                f"window must be positive, got {self.window}")
        check_floor_fraction(self.floor_fraction)
        if self.trace_window < 1:
            raise ValueError(
                f"trace_window must be >= 1, got {self.trace_window}")
        if self.max_pending < 1:
            raise ValueError(
                f"max_pending must be >= 1, got {self.max_pending}")
        if self.max_series < 1:
            raise ValueError(
                f"max_series must be >= 1, got {self.max_series}")
        if self.decide_top_k < 0:
            raise ValueError(
                f"decide_top_k must be >= 0, got {self.decide_top_k}")
        if not 1 <= self.min_allocation <= self.max_allocation:
            raise ValueError(
                f"need 1 <= min_allocation <= max_allocation, got "
                f"[{self.min_allocation}, {self.max_allocation}]")
        if self.latency_slo <= 0:
            raise ValueError(
                f"latency_slo must be positive, got {self.latency_slo}")
        if self.flight_rounds < 0:
            raise ValueError(
                f"flight_rounds must be >= 0, got {self.flight_rounds}")

    def to_dict(self) -> dict:
        """JSON-ready view for the ``/config`` endpoint."""
        return {
            "sla": self.sla,
            "floor_fraction": self.floor_fraction,
            "utilization_threshold": self.utilization_threshold,
            "cadence": self.cadence,
            "window": self.window,
            "trace_window": self.trace_window,
            "max_pending": self.max_pending,
            "max_series": self.max_series,
            "decide_top_k": self.decide_top_k,
            "min_allocation": self.min_allocation,
            "max_allocation": self.max_allocation,
            "exclude": list(self.exclude),
            "families": {
                "concurrency": self.concurrency_family,
                "rate": self.rate_family,
                "utilization": self.utilization_family,
                "allocation": self.allocation_family,
                "time": self.time_family,
            },
            "service_label": self.service_label,
            "latency_slo": self.latency_slo,
            "flight_rounds": self.flight_rounds,
            "scatter": {
                "min_degree": self.scatter.min_degree,
                "max_degree": self.scatter.max_degree,
                "min_samples": self.scatter.min_samples,
                "min_distinct": self.scatter.min_distinct,
                "quantum": self.scatter.quantum,
                "knee_quality": self.scatter.knee_quality,
            },
        }


class SeriesState:
    """Bounded streaming state for one monitored service.

    Ingested snapshots append one ``<concurrency, goodput>`` pair each;
    the control plane reads the trailing window back as arrays for the
    scatter model. Retention is value-bounded by the underlying
    :class:`~repro.metrics.sampler.TimeSeries` ring and time-bounded by
    :meth:`prune`.
    """

    __slots__ = ("name", "concurrency", "rate", "utilization",
                 "allocation", "snapshots", "updated")

    def __init__(self, name: str) -> None:
        self.name = name
        self.concurrency = TimeSeries()
        self.rate = TimeSeries()
        #: Latest utilization fraction reading (screening input).
        self.utilization: float | None = None
        #: Latest reported pool size, when the source exports one.
        self.allocation: int | None = None
        self.snapshots = 0
        self.updated = 0.0

    def observe(self, time: float, concurrency: float, rate: float,
                utilization: float | None = None,
                allocation: float | None = None) -> None:
        """Fold one snapshot's readings for this service."""
        self.concurrency.append(time, float(concurrency))
        self.rate.append(time, float(rate))
        if utilization is not None:
            self.utilization = float(utilization)
        if allocation is not None:
            self.allocation = max(1, int(round(allocation)))
        self.snapshots += 1
        self.updated = time

    def pairs(self, since: float = 0.0
              ) -> tuple[np.ndarray, np.ndarray]:
        """``(Q, GP)`` arrays observed at or after ``since``."""
        _t1, concurrency = self.concurrency.window(since)
        _t2, rate = self.rate.window(since)
        size = min(len(concurrency), len(rate))
        return concurrency[:size], rate[:size]

    def prune(self, before: float) -> None:
        """Drop pairs older than ``before``."""
        self.concurrency.prune(before)
        self.rate.prune(before)

    def state_dict(self) -> dict:
        """Exact streaming state for journal checkpoint compaction."""
        return {
            "concurrency": self.concurrency.state_dict(),
            "rate": self.rate.state_dict(),
            "utilization": self.utilization,
            "allocation": self.allocation,
            "snapshots": self.snapshots,
            "updated": self.updated,
        }

    @classmethod
    def from_state(cls, name: str, state: dict) -> "SeriesState":
        """Inverse of :meth:`state_dict`."""
        series = cls(name)
        series.concurrency = TimeSeries.from_state(state["concurrency"])
        series.rate = TimeSeries.from_state(state["rate"])
        series.utilization = state["utilization"]
        series.allocation = state["allocation"]
        series.snapshots = int(state["snapshots"])
        series.updated = float(state["updated"])
        return series


@dataclass(frozen=True)
class Recommendation:
    """One soft-resource recommendation served over the JSON API.

    Attributes:
        service: the monitored service the verdict applies to.
        allocation: recommended per-replica pool size (clamped to the
            configured bounds).
        before: the allocation in force when the round ran (reported
            by the source, or the previous recommendation).
        method: estimate provenance ("knee" or "argmax").
        threshold: propagated RT threshold the goodput window was
            judged against.
        round / time: control round ordinal and logical time.
        samples / max_concurrency / poly_degree / fit_r2 /
        knee_concurrency / knee_rate: estimate diagnostics mirroring
            :class:`~repro.core.scg.ConcurrencyEstimate`, for the
            explainability report.
    """

    service: str
    allocation: int
    before: int
    method: str
    threshold: float
    round: int
    time: float
    samples: int
    max_concurrency: float
    poly_degree: int | None = None
    fit_r2: float | None = None
    knee_concurrency: float | None = None
    knee_rate: float | None = None

    def to_dict(self) -> dict:
        """JSON-ready recommendation body."""
        payload: dict[str, _t.Any] = {
            "service": self.service,
            "allocation": self.allocation,
            "before": self.before,
            "method": self.method,
            "threshold": round(self.threshold, 6),
            "round": self.round,
            "time": self.time,
            "samples": self.samples,
            "max_concurrency": round(self.max_concurrency, 3),
        }
        if self.poly_degree is not None:
            payload["poly_degree"] = self.poly_degree
        if self.fit_r2 is not None and np.isfinite(self.fit_r2):
            payload["fit_r2"] = round(self.fit_r2, 4)
        if self.knee_concurrency is not None:
            payload["knee_concurrency"] = round(self.knee_concurrency, 3)
        if self.knee_rate is not None:
            payload["knee_rate"] = round(self.knee_rate, 3)
        return payload
