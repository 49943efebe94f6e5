"""Ingestion adapters: foreign telemetry → domain observations.

Two wire formats come in, both already spoken elsewhere in the repo:

- **OpenMetrics text exposition** — the exact format
  :func:`repro.obs.render_openmetrics` emits and any Prometheus-style
  scraper produces. Parsing is one strict pass of the repository's
  single OpenMetrics line grammar
  (:func:`repro.obs.openmetrics.scan_openmetrics`, which
  :func:`repro.obs.parse_openmetrics` also runs) that keeps only the
  configured ``sora_*`` families and writes them straight into one
  column per service; no per-sample objects or label dicts are built,
  and each distinct label text is resolved to its service once.
  Malformed payloads are rejected with the grammar's established error
  taxonomy ("bad sample", "bad comment", "missing # EOF terminator",
  ...) wrapped in a typed :class:`~repro.service.domain.IngestError`.
- **Jaeger-API-shaped JSON trace batches** — the ``data[].spans[]``
  document :func:`repro.tracing.export_traces` writes and Jaeger's
  HTTP API returns, parsed by
  :func:`repro.tracing.traces_from_jaeger`.

Adapters validate and translate only; they never touch control-plane
state, which keeps the application layer testable without HTTP and
the replay path byte-deterministic.
"""

from __future__ import annotations

import json
import typing as _t
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from repro.obs.openmetrics import label_value, scan_openmetrics
from repro.service.domain import IngestError, ServiceConfig
from repro.tracing.export import traces_from_jaeger
from repro.tracing.span import Span

__all__ = [
    "MetricsSnapshot",
    "SeriesSample",
    "parse_metrics_snapshot",
    "parse_trace_batch",
]


class SeriesSample(_t.NamedTuple):
    """One service's readings in a metrics snapshot (a row of
    :attr:`MetricsSnapshot.series`)."""

    concurrency: float
    rate: float
    utilization: float | None
    allocation: float | None


@dataclass(frozen=True)
class MetricsSnapshot:
    """A validated scrape, one column per service.

    ``services`` lists the services with both a concurrency and a rate
    reading in sorted order, then the utilization-only services in the
    order the scrape first names them; the arrays are aligned with it.
    Utilization-only services read NaN concurrency and rate; the
    ``has_*`` masks tell which services report a utilization or an
    allocation. The first ``pairs`` services are the ones that carry
    both a concurrency and a rate reading (NaN readings included).
    ``time`` is the source-supplied logical timestamp, or
    ``None`` when the exposition carries no clock family — the control
    plane then assigns ingest order as the logical time, which keeps
    replay deterministic.
    """

    time: float | None
    services: tuple[str, ...]
    concurrency: np.ndarray
    rate: np.ndarray
    utilization: np.ndarray
    has_utilization: np.ndarray
    allocation: np.ndarray
    has_allocation: np.ndarray
    pairs: int

    @property
    def paired(self) -> np.ndarray:
        """Which services carry a ``<concurrency, goodput>`` pair
        (neither reading NaN)."""
        return ~(np.isnan(self.concurrency) | np.isnan(self.rate))

    @property
    def series(self) -> dict[str, SeriesSample]:
        """``service -> SeriesSample``, in column order."""
        return {
            name: SeriesSample(
                float(self.concurrency[index]), float(self.rate[index]),
                (float(self.utilization[index])
                 if self.has_utilization[index] else None),
                (float(self.allocation[index])
                 if self.has_allocation[index] else None))
            for index, name in enumerate(self.services)}


def _column(readings: dict[str, float],
            services: _t.Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """``(values, present)`` of one family over ``services`` (NaN
    where absent)."""
    count = len(services)
    values = np.fromiter(map(readings.get, services, repeat(np.nan, count)),
                         dtype=np.float64, count=count)
    present = np.fromiter(map(readings.__contains__, services),
                          dtype=bool, count=count)
    return values, present


#: Most label texts :func:`parse_metrics_snapshot` remembers the service
#: of: a fleet of up to this many services (``ServiceConfig.max_series``'s
#: default) resolves each distinct label text once, not once a sample.
LABEL_MEMO = 4096

#: ``label key -> {label text -> service}`` for the last label key read;
#: the inner map is emptied before it would exceed :data:`LABEL_MEMO`.
_SERVICES: dict[str, dict[str | None, str | None]] = {}


def _services(key: str) -> dict[str | None, str | None]:
    """The label-text memo of ``key`` (replacing any other key's)."""
    memo = _SERVICES.get(key)
    if memo is None:
        _SERVICES.clear()
        memo = _SERVICES[key] = {}
    return memo


def parse_metrics_snapshot(text: str,
                           config: ServiceConfig) -> MetricsSnapshot:
    """Validate one OpenMetrics exposition into a snapshot.

    Raises:
        IngestError: ``"bad-openmetrics"`` when the strict grammar
            rejects the text (its message is preserved verbatim),
            ``"missing-label"`` when a sample of the concurrency, rate,
            utilization or allocation family (checked in that order)
            cannot be attributed to a service, ``"missing-family"``
            when the required concurrency/rate families are absent,
            empty, or share no service.
    """
    label = config.service_label
    clock_family = config.time_family
    wanted = (config.concurrency_family, config.rate_family,
              config.utilization_family, config.allocation_family)
    #: Per wanted family: ``service -> value`` (a repeated service keeps
    #: its first position and its last value).
    readings: tuple[dict[str, float], ...] = ({}, {}, {}, {})
    #: Per wanted family: the first sample lacking the service label.
    unlabelled: list[str | None] = [None] * len(wanted)
    roles: dict[str, list[int]] = {}
    for role, family in enumerate(wanted):
        roles.setdefault(family, []).append(role)
    declared: set[str] = set()
    clock: float | None = None
    services = _services(label)
    try:
        for family, kind, fields, value, _exemplar in \
                scan_openmetrics(text):
            if fields is None:
                # A (re)declared family starts over, as in
                # parse_openmetrics.
                declared.add(family)
                if family == clock_family:
                    clock = None
                for role in roles.get(family, ()):
                    readings[role].clear()
                    unlabelled[role] = None
                continue
            if family == clock_family and clock is None:
                clock = value
            family_roles = roles.get(family)
            if family_roles is None:
                continue
            raw = fields[1]
            try:
                service = services[raw]
            except KeyError:
                if len(services) >= LABEL_MEMO:
                    services.clear()
                service = services[raw] = label_value(raw, label)
            for role in family_roles:
                if service is not None:
                    readings[role][service] = value
                elif unlabelled[role] is None:
                    unlabelled[role] = fields[0]
    except ValueError as exc:
        raise IngestError("bad-openmetrics", str(exc)) from exc

    for name in unlabelled:
        if name is not None:
            raise IngestError(
                "missing-label",
                f"sample {name} lacks the "
                f"{label!r} label identifying its service")
    concurrency, rate, utilization, allocation = readings
    if not concurrency or not rate:
        raise IngestError(
            "missing-family",
            f"snapshot needs non-empty {config.concurrency_family!r} "
            f"and {config.rate_family!r} families (got "
            f"{sorted(declared)})")
    # Scrapes list their services in order, so this sort is one pass.
    paired = [name for name in concurrency if name in rate]
    paired.sort()
    if not paired:
        raise IngestError(
            "missing-family",
            "concurrency and rate families share no service label")
    # Utilization-only services still matter: they feed the screening
    # step even when the source exports no pool telemetry for them.
    services = paired + [name for name in utilization
                         if name not in concurrency or name not in rate]
    unpaired = [float("nan")] * (len(services) - len(paired))
    utilization_column, has_utilization = _column(utilization, services)
    allocation_column, has_allocation = _column(allocation, services)
    return MetricsSnapshot(
        time=clock, services=tuple(services),
        concurrency=np.array(
            [concurrency[name] for name in paired] + unpaired,
            dtype=np.float64),
        rate=np.array([rate[name] for name in paired] + unpaired,
                      dtype=np.float64),
        utilization=utilization_column, has_utilization=has_utilization,
        allocation=allocation_column, has_allocation=has_allocation,
        pairs=len(paired))


def parse_trace_batch(body: str | bytes) -> list[Span]:
    """Validate one Jaeger-shaped JSON document into span trees.

    Raises:
        IngestError: ``"bad-json"`` when the body is not JSON,
            ``"bad-jaeger"`` when the document parses but lacks the
            ``data[].spans[]`` shape, a trace has no root span, or a
            span lacks a finite start time and a finite, non-negative
            duration.
    """
    if isinstance(body, bytes):
        body = body.decode("utf-8", errors="replace")
    try:
        document = json.loads(body)
    except json.JSONDecodeError as exc:
        raise IngestError("bad-json", str(exc)) from exc
    if not isinstance(document, dict) or "data" not in document:
        raise IngestError(
            "bad-jaeger", "document must be an object with a 'data' "
            "array of traces")
    try:
        roots = traces_from_jaeger(document)
    except (KeyError, TypeError, ValueError) as exc:
        raise IngestError("bad-jaeger", str(exc)) from exc
    for root in roots:
        if not root.finished:
            raise IngestError(
                "bad-jaeger",
                f"trace {root.trace_id:#x} has an unfinished root span")
    return roots
