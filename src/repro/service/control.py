"""Application layer: the online localization → propagation → adaptation
loop.

:class:`ControlPlane` is the long-lived, transport-free core of the
service. Adapters feed it validated snapshots and trace batches; each
control round re-runs the paper's pipeline over its streaming state:

1. **Localization** — utilization screening plus the streaming-Pearson
   critical-path aggregator, so the signal survives bounded memory and
   arbitrary trace sampling upstream.
2. **Deadline propagation** — per-trace upstream budgets, folded at
   ingest into a bounded window, so a round's threshold is a cheap mean.
3. **Adaptation** — the embedded controller's decision core
   (:func:`repro.core.policy.decide_round`) over every decided
   service: the saturation rules settle pinned pools, one
   :meth:`~repro.core.scg.ScatterCurveModel.estimate_many` batch
   estimates the rest. Span processing times (``departure - started``),
   folded at ingest beside the budgets, feed the growth gate.

Every round appends a :class:`~repro.obs.events.ControlRoundRecord` to
the decision log, with ``wall_ms`` unset: the audit trail must replay
byte-identically from the journal, and wall clocks do not replay. Wall
latencies feed the service's *own* observability instead — a quantile
sketch of per-recommendation latency (each one's share of its round's
estimation batch, the registry's histogram of that name) and an SLO
monitor on the controller itself, exported over OpenMetrics.

Determinism contract: given the same sequence of
``ingest_metrics`` / ``ingest_traces`` / ``tick`` calls (with the
times the journal recorded), a fresh plane reproduces the decision
JSONL byte-for-byte.
"""

from __future__ import annotations

import dataclasses
import typing as _t
from collections import deque

import numpy as np

from repro.core import policy
from repro.core.deadline import clamp_threshold
from repro.core.localization import CriticalServiceLocator
from repro.core.scg import SCGModel
from repro.obs import (
    ControlRoundRecord,
    FlightRecorder,
    Observability,
    QuantileSketch,
    SLOMonitor,
    SLOSpec,
    TargetDecision,
    render_openmetrics,
    render_text,
)
from repro.service.domain import (
    IngestError,
    Recommendation,
    SeriesStore,
    ServiceConfig,
)
from repro.service.ingest import parse_metrics_snapshot, parse_trace_batch
from repro.tracing.analytics import CriticalPathAggregator
from repro.tracing.critical_path import extract_critical_path

__all__ = ["ControlPlane"]

#: Name stamped on every control round the service emits.
CONTROLLER_NAME = "service"
#: Largest concurrency, goodput or pool size magnitude a snapshot may
#: report: the largest integer a float64 holds exactly (a larger pool
#: size overflows the decision core's int64 columns, and a larger pair
#: reading is no measurement).
MAX_ALLOCATION = 2 ** 53


def _fold_p2_state(legacy: dict) -> dict:
    """A version-1 checkpoint's P² sketch state as a sketch state.

    The markers of every tracked quantile form one step CDF: each
    marker height is observed with the weight of its rank minus the
    previous marker's rank (the weights sum to the count). Count, sum,
    min and max carry over exactly.
    """
    heights_by_rank: dict[float, float] = {}
    for markers in legacy["estimators"].values():
        # Warm-up states hold fewer heights than positions.
        heights_by_rank.update(zip(markers["positions"],
                                   markers["heights"]))
    sketch = QuantileSketch()
    previous = 0.0
    for rank in sorted(heights_by_rank):
        sketch.observe(heights_by_rank[rank], int(rank - previous))
        previous = rank
    return {**sketch.state_dict(), "count": int(legacy["count"]),
            "sum": float(legacy["total"]), "min": float(legacy["min"]),
            "max": float(legacy["max"])}


class ControlPlane:
    """Transport-free online controller over streaming telemetry.

    Args:
        config: pipeline tuning (see
            :class:`~repro.service.domain.ServiceConfig`).
        max_records: decision-log ring capacity.
    """

    def __init__(self, config: ServiceConfig | None = None,
                 max_records: int = 4096) -> None:
        self.config = config or ServiceConfig()
        cfg = self.config
        self.max_records = max_records
        #: Decision JSONL lines carried over from a journal checkpoint;
        #: merged (and ring-truncated) into :meth:`decisions_jsonl`.
        self._restored_decisions: list[str] = []
        self.locator = CriticalServiceLocator(
            utilization_threshold=cfg.utilization_threshold,
            exclude=cfg.exclude)
        self.model = SCGModel(cfg.scatter)
        self.analytics = CriticalPathAggregator()
        self.obs = Observability(max_records=max_records)
        #: Phase timer and self-tracing round ring (falsy when
        #: ``cfg.flight_rounds == 0``: phases are still timed for the
        #: report, but no round is recorded).
        self.flight = self.obs.flight = FlightRecorder(cfg.flight_rounds)
        self.obs.slo = SLOMonitor(SLOSpec(
            name="service-recommendation",
            latency_threshold=cfg.latency_slo))
        # Expose ingested-trace aggregates through the same OpenMetrics
        # families a simulator run exports (repro_trace_*), exemplars
        # included.
        self.obs.trace_analytics = self.analytics
        self.analytics.duration = self.obs.registry.histogram(
            "trace.latency")
        #: Per-recommendation wall latency in seconds.
        self.latency = self.obs.registry.histogram(
            "service.recommendation.latency")

        self._store = SeriesStore()
        #: Per-trace ``service -> upstream self-time budget`` along the
        #: critical path, folded at ingest so round-time propagation is
        #: a mean over this window instead of a re-walk of every trace.
        self._budgets: deque[dict[str, float]] = deque(
            maxlen=cfg.trace_window)
        #: Per-trace ``(service, departure, departure - started)`` of
        #: every span, in the same window: the growth gate's evidence.
        self._processing: deque[tuple[tuple[str, float, float], ...]] = \
            deque(maxlen=cfg.trace_window)
        self.recommendations: dict[str, Recommendation] = {}
        #: Logical clock: advanced by snapshot timestamps, trace
        #: departures, and control rounds — never by the wall clock.
        self.now = 0.0
        self.rounds = 0
        self.snapshots_ingested = 0
        self.traces_ingested = 0
        self.decisions_made = 0
        self._pending = 0
        self._wall_total = 0.0

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Accepted snapshots queued since the last control round."""
        return self._pending

    def ingest_metrics(self, text: str) -> dict:
        """Fold one OpenMetrics snapshot into the series store: one
        row of pairs, plus the utilization and allocation readings.

        The snapshot is validated in full before any state mutates, so
        a rejection leaves the plane (and therefore the journal/replay
        contract) untouched.

        Raises:
            IngestError: validation failures (propagated from the
                adapter), ``"backpressure"`` when more than
                ``max_pending`` snapshots queued since the last round,
                ``"series-limit"`` when the snapshot would create more
                tracked services than ``max_series`` allows,
                ``"stale-snapshot"`` when the snapshot's time precedes
                a sample already observed for one of its series (the
                per-series clocks must be non-decreasing),
                ``"bad-openmetrics"`` when a service's concurrency or
                goodput is NaN, negative or larger than
                :data:`MAX_ALLOCATION`, or a service with a pair reports
                a NaN allocation or one larger than
                :data:`MAX_ALLOCATION` in magnitude.
        """
        cfg = self.config
        with self.flight.phase("ingest.metrics"):
            if self._pending >= cfg.max_pending:
                self.obs.registry.counter("service.rejected").inc()
                raise IngestError(
                    "backpressure",
                    f"{self._pending} snapshots already queued since the "
                    f"last control round (max_pending={cfg.max_pending}); "
                    f"retry after the next round")
            snapshot = parse_metrics_snapshot(text, cfg)
            store = self._store
            columns = store.columns(snapshot.services)
            known = columns >= 0
            tracked = len(store) + int(columns.size - known.sum())
            if tracked > cfg.max_series:
                self.obs.registry.counter("service.rejected").inc()
                raise IngestError(
                    "series-limit",
                    f"snapshot would track {tracked}"
                    f" services (max_series={cfg.max_series})")
            now = (snapshot.time if snapshot.time is not None
                   else self.now + 1.0)
            # Reject time regressions *before* mutating anything: a partial
            # apply would journal nothing yet leave live state diverged
            # from the journal, breaking replay byte-identity.
            paired = snapshot.paired
            checked = np.flatnonzero(paired & known)
            seen = columns[checked]
            stale = checked[(store.snapshots[seen] > 0)
                            & (now < store.updated[seen])]
            if stale.size:
                self.obs.registry.counter("service.rejected").inc()
                latest = float(store.updated[columns[stale]].max())
                names = sorted(snapshot.services[i] for i in stale)
                raise IngestError(
                    "stale-snapshot",
                    f"snapshot time {now} precedes already-observed "
                    f"samples (latest {latest}) for: {', '.join(names)}")
            # A NaN, infinite, negative or oversized pair, or a NaN or
            # oversized pool size beside one, would be stored and fitted
            # (or fail every later round), so it rejects the whole
            # snapshot.
            head = slice(0, snapshot.pairs)
            pair = np.stack((snapshot.concurrency[head],
                             snapshot.rate[head]))
            sized = np.where(snapshot.has_allocation[head],
                             snapshot.allocation[head], 0.0)
            invalid = ~(((pair >= 0) & (pair <= MAX_ALLOCATION)).all(axis=0)
                        & (np.abs(sized) <= MAX_ALLOCATION))
            if invalid.any():
                self.obs.registry.counter("service.rejected").inc()
                names = [snapshot.services[i]
                         for i in np.flatnonzero(invalid)]
                raise IngestError(
                    "bad-openmetrics",
                    f"{cfg.concurrency_family!r} and {cfg.rate_family!r} "
                    f"must be finite, non-negative and at most "
                    f"{MAX_ALLOCATION}, and {cfg.allocation_family!r} at "
                    f"most {MAX_ALLOCATION} in magnitude, for services "
                    f"with pair telemetry; invalid for: {', '.join(names)}")
            self.now = max(self.now, now)
            store.observe(now, store.track(snapshot.services, columns),
                          snapshot)
            self._pending += 1
            self.snapshots_ingested += 1
        self.obs.registry.counter("service.snapshots").inc()
        self.obs.registry.gauge("service.series").set(
            float(len(self._store)))
        return {"accepted": True, "time": now,
                "series": sorted(snapshot.services),
                "pending": self._pending}

    def ingest_traces(self, body: str | bytes) -> dict:
        """Fold one Jaeger-shaped trace batch into the aggregates."""
        with self.flight.phase("ingest.traces"):
            roots = parse_trace_batch(body)
            for root in roots:
                path = extract_critical_path(root)
                self.analytics.observe(root, path)
                self._budgets.append(dict(zip(path.services, path.upstream)))
                self._processing.append(tuple(
                    (span.service, span.departure,
                     span.departure - span.started)
                    for span in root.walk()
                    if span.started is not None
                    and span.departure is not None))
                self.now = max(self.now, _t.cast(float, root.departure))
            self.traces_ingested += len(roots)
        self.obs.registry.counter("service.traces").inc(len(roots))
        return {"accepted": True, "traces": len(roots),
                "observed": self.analytics.traces_observed}

    # ------------------------------------------------------------------
    # Control rounds
    # ------------------------------------------------------------------
    def _thresholds(self, services: _t.Sequence[str]) -> dict[str, float]:
        """Propagated RT thresholds from the ingest-time budget window.

        One pass folds the window into ``service -> budgets`` (window
        order) for the requested services. Each threshold is the mean
        of ``sla - upstream_budget`` over window traces whose critical
        path crossed the service, clamped to
        ``[floor_fraction * sla, sla]`` by
        :func:`~repro.core.deadline.clamp_threshold`; the full SLA when
        no trace did (a service with no observed upstreams keeps the
        whole budget).
        """
        cfg = self.config
        budgets: dict[str, list[float]] = {name: [] for name in services}
        for entry in self._budgets:
            for service, budget in entry.items():
                if service in budgets:
                    budgets[service].append(budget)
        return {name: (clamp_threshold(cfg.sla - float(np.mean(spent)),
                                       cfg.sla, cfg.floor_fraction)
                       if spent else cfg.sla)
                for name, spent in budgets.items()}

    def _adapt(self, services: _t.Sequence[str], now: float,
               thresholds: dict[str, float]) -> tuple[TargetDecision, ...]:
        """Run the decision core over the decided services and refresh
        each one's recommendation. A service's pool in force is the one
        it reported, else its last recommendation, else
        ``min_allocation``; its processing P90 covers the spans that
        departed in ``(now - window, now]``."""
        cfg = self.config
        store = self._store
        since = now - cfg.window
        processing: dict[str, list[float]] = {name: [] for name in services}
        for entry in self._processing:
            for service, departure, seconds in entry:
                if service in processing and since < departure <= now:
                    processing[service].append(seconds)
        current = []
        for name in services:
            reported = store.allocation(name)
            previous = self.recommendations.get(name)
            current.append(reported if reported is not None
                           else previous.allocation if previous is not None
                           else cfg.min_allocation)
        windows = store.windows(services, since)
        decisions = policy.decide_round(
            self.model, services, "round", current,
            [thresholds[name] for name in services],
            [policy.p90(processing[name]) for name in services], windows,
            min_allocation=cfg.min_allocation,
            max_allocation=cfg.max_allocation)
        for decision, (concurrency, _rate) in zip(decisions, windows):
            name = decision.target
            self.recommendations[name] = Recommendation(
                service=name, allocation=decision.after,
                before=decision.before,
                method=decision.method or decision.reason,
                threshold=thresholds[name], round=self.rounds + 1,
                time=now,
                samples=(concurrency.size if decision.samples is None
                         else decision.samples),
                max_concurrency=(float(concurrency.max(initial=0.0))
                                 if decision.max_concurrency is None
                                 else decision.max_concurrency),
                poly_degree=decision.poly_degree, fit_r2=decision.fit_r2,
                knee_concurrency=decision.knee_concurrency,
                knee_rate=decision.knee_rate)
            self.obs.timeline.record(f"rec.{name}", now,
                                     float(decision.after))
        return decisions

    def _observe_latency(self, wall: float, count: int,
                         now: float) -> None:
        """Feed one estimation batch's wall seconds to the controller's
        own latency telemetry: the batch wall once into the
        decisions/s total, and the ``count`` recommendations' amortized
        share as one weighted insert into the latency sketch and one
        good or bad count into the SLO monitor."""
        self._wall_total += wall
        share = wall / count
        slo = self.obs.slo
        assert slo is not None
        self.latency.observe(share, count)
        good = count if share <= slo.spec.latency_threshold else 0
        slo.observe_counts(now, good, count - good)
        # Exemplar: pin the slowest recommendation to the self-trace
        # of the round that produced it, so the `/metrics` scrape links
        # straight into `/debug/rounds/{id}` (a round's recommendations
        # share one latency, so one link per round suffices).
        self.latency.link_exemplar(self.rounds + 1, share, now)

    def tick(self, now: float | None = None,
             trigger: str = "cadence") -> ControlRoundRecord:
        """Run one control round at logical time ``now``.

        When ``now`` is omitted the round runs at the current logical
        clock. The resolved time is stamped on the returned record —
        journal it, and replay becomes exact.
        """
        cfg = self.config
        if now is None:
            now = self.now
        self.now = max(self.now, now)
        flight = self.flight
        flight.begin_round()
        store = self._store
        with flight.phase("localization"):
            report = self.locator.locate_from_aggregate(
                self.analytics, store.utilizations())

            # Only services whose source exports pair telemetry can be
            # estimated; utilization-only series still feed screening
            # and correlations but cannot receive a verdict.
            instrumented = set(store.instrumented())
            if cfg.decide_top_k == 0:
                decided = sorted(instrumented)
            else:
                ranked = sorted(
                    (name for name in report.correlations
                     if name in instrumented),
                    key=lambda name: -report.correlations[name])
                decided = []
                if report.critical_service in instrumented:
                    decided.append(
                        _t.cast(str, report.critical_service))
                for name in ranked:
                    if len(decided) >= cfg.decide_top_k:
                        break
                    if name not in decided:
                        decided.append(name)

        with flight.phase("deadline_propagation"):
            thresholds = self._thresholds(decided)
        with flight.phase("scg_estimation"):
            decisions: tuple[TargetDecision, ...] = ()
            if decided:
                with flight.phase("estimate.batch") as timer:
                    decisions = self._adapt(decided, now, thresholds)
                self._observe_latency(timer.elapsed, len(decisions), now)
                # Latency readings group by the parallelism they ran
                # with.
                self.obs.registry.gauge("service.estimate.workers").set(
                    float(self.model.last_workers))
        with flight.phase("decision"):
            record = ControlRoundRecord(
                time=now, controller=CONTROLLER_NAME, trigger=trigger,
                critical_service=report.critical_service,
                dominant_path=report.dominant_path,
                correlations=report.correlations,
                candidates=report.candidates,
                thresholds=thresholds,
                decisions=decisions,
                traces=self.analytics.traces_observed)
            self.obs.record(record)
            self.rounds += 1
            self.decisions_made += len(decisions)
            self._pending = 0
            store.prune(now - 2.0 * cfg.window)
            registry = self.obs.registry
            registry.counter("service.rounds").inc()
            registry.counter("service.decisions").inc(len(decisions))
            registry.gauge("service.pending").set(0.0)
            if self.latency.count:
                registry.gauge("service.recommendation.p50.seconds").set(
                    self.latency.quantile(0.5))
                registry.gauge("service.recommendation.p99.seconds").set(
                    self.latency.quantile(0.99))
            if self._wall_total > 0.0:
                registry.gauge("service.decisions.per.second").set(
                    self.decisions_made / self._wall_total)
            self.obs.timeline.record("service.series", now,
                                     float(len(store)))
        if flight:
            flight.record_round(
                round_index=self.rounds, time=now, trigger=trigger,
                critical_service=report.critical_service,
                decisions=[decision.target for decision in decisions])
            registry.gauge("service.flight.rounds").set(
                float(len(flight)))
        return record

    # ------------------------------------------------------------------
    # Checkpoint / restore (journal compaction)
    # ------------------------------------------------------------------
    def checkpoint(self) -> dict:
        """Exact decision-relevant state, JSON-ready.

        Captures everything the next ``tick`` reads when producing a
        decision record: every series' pairs and readings (in the
        version-1 per-series form), the deadline budget window and
        the span processing times beside it, current recommendations
        (the ``before`` baseline), counters, the logical clock, and
        the critical-path aggregator (correlations + top-k paths +
        sketches). Wall-clock artifacts (the latency sketch, the SLO
        monitor, the flight recorder) are deliberately excluded — they
        never reach decision records, so a restored plane replays the
        journal tail byte-identically without them.

        Version 2 holds the log-bucketed sketches; :meth:`restore`
        still reads version 1, whose sketches were P² marker states.
        """
        return {
            "version": 2,
            "now": self.now,
            "rounds": self.rounds,
            "snapshots_ingested": self.snapshots_ingested,
            "traces_ingested": self.traces_ingested,
            "decisions_made": self.decisions_made,
            "pending": self._pending,
            "series": self._store.state_dict(),
            "budgets": [dict(entry) for entry in self._budgets],
            "processing": [[list(span) for span in entry]
                           for entry in self._processing],
            "recommendations": {
                name: dataclasses.asdict(rec)
                for name, rec in sorted(self.recommendations.items())},
            "analytics": self.analytics.state_dict(),
        }

    def restore(self, state: dict) -> None:
        """Inverse of :meth:`checkpoint` (call on a fresh plane)."""
        version = state.get("version")
        if version not in (1, 2):
            raise ValueError(
                f"unsupported checkpoint version {version!r}")
        cfg = self.config
        self.now = float(state["now"])
        self.rounds = int(state["rounds"])
        self.snapshots_ingested = int(state["snapshots_ingested"])
        self.traces_ingested = int(state["traces_ingested"])
        self.decisions_made = int(state["decisions_made"])
        self._pending = int(state["pending"])
        self._store = SeriesStore.from_state(state["series"])
        self._budgets = deque(
            ({service: float(budget)
              for service, budget in entry.items()}
             for entry in state["budgets"]),
            maxlen=cfg.trace_window)
        # A checkpoint written before processing times were kept
        # restores with no processing evidence for its traces.
        self._processing = deque(
            (tuple((service, float(departure), float(processing))
                   for service, departure, processing in entry)
             for entry in state.get("processing",
                                    [[]] * len(state["budgets"]))),
            maxlen=cfg.trace_window)
        self.recommendations = {
            name: Recommendation(**payload)
            for name, payload in state["recommendations"].items()}
        analytics = state["analytics"]
        if version == 1:
            analytics = {
                **analytics,
                "duration": _fold_p2_state(analytics["duration"]),
                "self_time": {
                    service: _fold_p2_state(sketch)
                    for service, sketch
                    in analytics["self_time"].items()}}
        self.analytics.load_state(analytics)

    def seed_decisions(self, lines: _t.Sequence[str]) -> None:
        """Install decision JSONL lines preserved by a checkpoint.

        The lines prepend the live ring in :meth:`decisions_jsonl`;
        the merged trail is truncated to the last ``max_records``
        lines, matching the ring a never-compacted plane would hold.
        """
        self._restored_decisions = [line for line in lines if line]

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def recommendation_dicts(self) -> dict[str, dict]:
        """All current recommendations, JSON-ready, keyed by service."""
        return {name: rec.to_dict()
                for name, rec in sorted(self.recommendations.items())}

    def status(self) -> dict:
        """JSON-ready operational summary (the ``/status`` body)."""
        latency: dict[str, _t.Any] = {"count": self.latency.count}
        if self.latency.count:
            latency.update(
                p50_ms=round(self.latency.quantile(0.5) * 1e3, 3),
                p99_ms=round(self.latency.quantile(0.99) * 1e3, 3),
                mean_ms=round(self.latency.mean * 1e3, 3))
        slo = self.obs.slo
        assert slo is not None
        return {
            "controller": CONTROLLER_NAME,
            "now": self.now,
            "rounds": self.rounds,
            "snapshots": self.snapshots_ingested,
            "traces": self.traces_ingested,
            "series": len(self._store),
            "pending": self._pending,
            "decisions": self.decisions_made,
            "recommendations": len(self.recommendations),
            "recommendation_latency": latency,
            "decisions_per_sec": (
                round(self.decisions_made / self._wall_total, 3)
                if self._wall_total > 0 else None),
            "slo": {
                "name": slo.spec.name,
                "latency_threshold": slo.spec.latency_threshold,
                "objective": slo.spec.objective,
                "compliance": round(slo.compliance(), 6),
                "observed": slo.total,
            },
        }

    def report(self) -> str:
        """Explainability report over the decision log (text)."""
        return render_text(self.obs, title="sora-service")

    def openmetrics(self) -> str:
        """The service's own state as an OpenMetrics exposition."""
        return render_openmetrics(self.obs, now=self.now)

    def decisions_jsonl(self) -> str:
        """The decision trail as JSONL (the persisted audit artifact).

        Checkpoint-restored lines come first, then the live ring; the
        merge keeps only the last ``max_records`` lines so a compacted
        replay matches what an uncompacted plane would have persisted.
        """
        lines = list(self._restored_decisions)
        text = self.obs.decisions.to_jsonl()
        if text:
            lines.extend(text.split("\n"))
        lines = lines[-self.max_records:] if self.max_records else lines
        return "\n".join(lines) + "\n" if lines else ""
