"""Domain model of the standalone control-plane service.

The service layer turns the in-simulator adaptation framework into a
long-lived controller any system can point telemetry at. This module
holds the *domain* vocabulary that the ingestion adapters and the
control application layer share — deliberately free of HTTP, asyncio,
and persistence concerns:

- :class:`ServiceConfig` — every tunable of the online pipeline
  (metric family names, SLA, cadence, scatter-model knobs, bounds);
- :class:`SeriesStore` — the bounded streaming state of every
  monitored service in columns: one time column, one ``rows x
  services`` array each for concurrency and goodput, and each
  service's latest utilization/allocation readings;
- :class:`Recommendation` — one soft-resource verdict of the shared
  adaptation policy, JSON-ready for the API layer;
- :class:`IngestError` — the typed rejection taxonomy every adapter
  raises, so the API layer can map causes onto status codes without
  string matching.
"""

from __future__ import annotations

import math
import typing as _t
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from repro.core.deadline import check_floor_fraction
from repro.core.scg import ScatterModelConfig

if _t.TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.service.ingest import MetricsSnapshot

__all__ = [
    "IngestError",
    "Recommendation",
    "SeriesStore",
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


class SeriesStore:
    """Bounded streaming state of every monitored service, in columns.

    One column per service, in the order the services were first seen.
    One row per accepted snapshot that carried a ``<concurrency,
    goodput>`` pair: a shared time column plus one ``rows x services``
    array each for concurrency and goodput, where NaN means "no pair
    from this snapshot". Each column also keeps the service's latest
    utilization and allocation readings, its pair count and the time of
    its latest pair.

    A service's pairs are non-decreasing in time (the control plane
    rejects stale snapshots per service), but row times need not be: a
    snapshot older than another service's latest pair is accepted for a
    service that lags. So windows and pruning select rows by mask, and
    a service's window is its pairs at or after ``since`` in insertion
    order.
    """

    __slots__ = ("names", "_index", "updated", "snapshots", "_utilization",
                 "_has_utilization", "_allocation", "_has_allocation",
                 "_times", "_concurrency", "_rate", "_rows")

    #: Per-column arrays (capacity-sized; the first ``len(self)`` live).
    _COLUMNS = ("updated", "snapshots", "_utilization", "_has_utilization",
                "_allocation", "_has_allocation")

    def __init__(self) -> None:
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        #: Time of each column's latest pair (0.0 before its first).
        self.updated = np.zeros(0)
        #: Pairs each column has received.
        self.snapshots = np.zeros(0, dtype=np.int64)
        self._utilization = np.zeros(0)
        self._has_utilization = np.zeros(0, dtype=bool)
        #: Rounded pool size, ``>= 1`` (float, so that every rounded
        #: reading converts back to its exact integer).
        self._allocation = np.zeros(0)
        self._has_allocation = np.zeros(0, dtype=bool)
        self._times = np.zeros(0)
        self._concurrency = np.zeros((0, 0))
        self._rate = np.zeros((0, 0))
        self._rows = 0

    def __len__(self) -> int:
        return len(self.names)

    def columns(self, names: _t.Sequence[str]) -> np.ndarray:
        """Column of each name, ``-1`` for services not yet tracked."""
        return np.fromiter(map(self._index.get, names, repeat(-1)),
                           dtype=np.intp, count=len(names))

    def track(self, names: _t.Sequence[str],
              columns: np.ndarray) -> np.ndarray:
        """Give the names whose column (from :meth:`columns`) is ``-1``
        the next columns in order, writing them into ``columns``."""
        fresh = np.flatnonzero(columns < 0).tolist()
        if fresh:
            self._reserve(self._rows, len(self.names) + len(fresh))
            for position in fresh:
                name = names[position]
                columns[position] = self._index[name] = len(self.names)
                self.names.append(name)
        return columns

    def _reserve(self, rows: int, columns: int) -> None:
        """Grow the arrays (doubling) to hold ``rows x columns``."""
        row_cap, col_cap = self._concurrency.shape
        if rows <= row_cap and columns <= col_cap:
            return
        if columns > col_cap:
            col_cap = max(64, 2 * col_cap, columns)
            width = len(self.names)
            for attr in self._COLUMNS:
                old = getattr(self, attr)
                new = np.zeros(col_cap, dtype=old.dtype)
                new[:width] = old[:width]
                setattr(self, attr, new)
        if rows > row_cap:
            row_cap = max(64, 2 * row_cap, rows)
            times = np.zeros(row_cap)
            times[:self._rows] = self._times[:self._rows]
            self._times = times
        for attr in ("_concurrency", "_rate"):
            old = getattr(self, attr)
            new = np.full((row_cap, col_cap), np.nan)
            new[:old.shape[0], :old.shape[1]] = old
            setattr(self, attr, new)

    def observe(self, time: float, columns: np.ndarray,
                snapshot: "MetricsSnapshot") -> None:
        """Fold one snapshot whose services sit in ``columns``.

        The services with a pair get one new row at ``time``, and their
        reported allocations (which must be finite); every service gets
        its reported utilization.
        """
        reported = snapshot.has_utilization
        self._utilization[columns[reported]] = \
            snapshot.utilization[reported]
        self._has_utilization[columns[reported]] = True
        paired = snapshot.paired
        if not paired.any():
            return
        row = self._rows
        self._reserve(row + 1, len(self.names))
        pairs = columns[paired]
        self._times[row] = time
        self._concurrency[row, pairs] = snapshot.concurrency[paired]
        self._rate[row, pairs] = snapshot.rate[paired]
        self._rows = row + 1
        self.updated[pairs] = time
        self.snapshots[pairs] += 1
        sized = paired & snapshot.has_allocation
        self._allocation[columns[sized]] = np.maximum(
            1.0, np.rint(snapshot.allocation[sized]))
        self._has_allocation[columns[sized]] = True

    def utilizations(self) -> dict[str, float]:
        """Latest utilization of every service reporting one, in
        column order."""
        reported = np.flatnonzero(self._has_utilization[:len(self)])
        return {self.names[column]: float(self._utilization[column])
                for column in reported}

    def instrumented(self) -> list[str]:
        """Services that have received at least one pair."""
        return [self.names[column] for column in
                np.flatnonzero(self.snapshots[:len(self)] > 0)]

    def allocation(self, name: str) -> int | None:
        """Latest pool size reported alongside a pair, if any."""
        column = self._index[name]
        if not self._has_allocation[column]:
            return None
        return int(self._allocation[column])

    def windows(self, names: _t.Sequence[str], since: float
                ) -> list[tuple[np.ndarray, np.ndarray]]:
        """``(Q, GP)`` pairs of each service observed at or after
        ``since``, read as one row-masked slice of the store."""
        if not names:
            return []
        rows = np.flatnonzero(self._times[:self._rows] >= since)
        block = np.ix_(rows, self.columns(names))
        concurrency = self._concurrency[block].T
        present = ~np.isnan(concurrency)
        ends = np.cumsum(present.sum(axis=1)).tolist()
        concurrency = concurrency[present]
        rate = self._rate[block].T[present]
        return [(concurrency[start:end], rate[start:end])
                for start, end in zip([0] + ends[:-1], ends)]

    def prune(self, before: float) -> None:
        """Drop the rows older than ``before``."""
        rows = self._rows
        keep = ~(self._times[:rows] < before)
        kept = int(keep.sum())
        if kept == rows:
            return
        self._times[:kept] = self._times[:rows][keep]
        for block in (self._concurrency, self._rate):
            block[:kept] = block[:rows][keep]
            block[kept:rows] = np.nan
        self._rows = kept

    def state_dict(self) -> dict[str, dict]:
        """Exact per-service state, sorted by service, for journal
        checkpoint compaction (version 1: each service's pairs as
        ``concurrency``/``rate`` ``{"times", "values"}`` plus its
        latest readings)."""
        state = {}
        times = self._times[:self._rows]
        for name in sorted(self.names):
            column = self._index[name]
            values = self._concurrency[:self._rows, column]
            present = ~np.isnan(values)
            stamps = times[present].tolist()
            state[name] = {
                "concurrency": {"times": stamps,
                                "values": values[present].tolist()},
                "rate": {"times": list(stamps),
                         "values": self._rate[:self._rows, column][
                             present].tolist()},
                "utilization": (float(self._utilization[column])
                                if self._has_utilization[column]
                                else None),
                "allocation": self.allocation(name),
                "snapshots": int(self.snapshots[column]),
                "updated": float(self.updated[column]),
            }
        return state

    @classmethod
    def from_state(cls, state: dict[str, dict]) -> "SeriesStore":
        """Inverse of :meth:`state_dict`: columns in ``state`` order,
        rows merged on ``(time, occurrence)`` so that equal timestamps
        of one service keep their order."""
        store = cls()
        names = list(state)
        store.track(names, store.columns(names))
        keys: list[list[tuple[float, int, float]]] = []
        for series in state.values():
            seen: dict[tuple[float, float], int] = {}
            own = []
            for time in series["concurrency"]["times"]:
                # Keep 0.0 and -0.0 apart so each re-emits exactly.
                exact = (float(time), math.copysign(1.0, time))
                occurrence = seen.get(exact, 0)
                seen[exact] = occurrence + 1
                own.append((exact[0], occurrence, exact[1]))
            keys.append(own)
        rows = sorted({key for own in keys for key in own})
        row_of = {key: row for row, key in enumerate(rows)}
        store._reserve(len(rows), len(store))
        store._times[:len(rows)] = [key[0] for key in rows]
        store._rows = len(rows)
        for column, (series, own) in enumerate(zip(state.values(), keys)):
            at = [row_of[key] for key in own]
            store._concurrency[at, column] = series["concurrency"]["values"]
            store._rate[at, column] = series["rate"]["values"]
            if series["utilization"] is not None:
                store._utilization[column] = float(series["utilization"])
                store._has_utilization[column] = True
            if series["allocation"] is not None:
                store._allocation[column] = int(series["allocation"])
                store._has_allocation[column] = True
            store.snapshots[column] = int(series["snapshots"])
            store.updated[column] = float(series["updated"])
        return store


@dataclass(frozen=True)
class Recommendation:
    """One soft-resource recommendation served over the JSON API,
    refreshed by every decision on its service.

    Attributes:
        service: the monitored service the verdict applies to.
        allocation: the decision's per-replica pool size.
        before: the allocation in force when the round ran (reported
            by the source, else the previous recommendation).
        method: the estimate's method, else the policy rule's reason.
        threshold: propagated RT threshold the goodput window was
            judged against.
        round / time: control round ordinal and logical time.
        samples / max_concurrency / poly_degree / fit_r2 /
        knee_concurrency / knee_rate: estimate diagnostics mirroring
            :class:`~repro.core.scg.ConcurrencyEstimate` (without an
            estimate, the window's sample count and peak), for the
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
        """JSON-ready recommendation body (unset diagnostics omitted)."""
        payload: dict[str, _t.Any] = {}
        for name, value in vars(self).items():
            if value is None or (name == "fit_r2"
                                 and not np.isfinite(value)):
                continue
            digits = _DIGITS.get(name)
            payload[name] = value if digits is None else round(value,
                                                                digits)
        return payload


#: Decimal places of the rounded fields of a recommendation body.
_DIGITS = {"threshold": 6, "max_concurrency": 3, "fit_r2": 4,
           "knee_concurrency": 3, "knee_rate": 3}
