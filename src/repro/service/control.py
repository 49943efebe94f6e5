"""Application layer: the online localization → propagation → SCG loop.

:class:`ControlPlane` is the long-lived, transport-free core of the
service. Adapters feed it validated snapshots and trace batches; on
each control round it re-runs the paper's pipeline over its streaming
state:

1. **Localization** — utilization screening plus the streaming-Pearson
   critical-path aggregator
   (:meth:`~repro.core.localization.CriticalServiceLocator.
   locate_from_aggregate`), so the signal survives bounded memory and
   arbitrary trace sampling upstream.
2. **Deadline propagation** — per-trace upstream budgets are folded at
   ingest time into a bounded window, so the per-round threshold is a
   cheap mean even with thousands of candidate services.
3. **SCG estimation** — the scatter-curve model over every decided
   service's windowed ``<Q, GP>`` pairs, in one
   :meth:`~repro.core.scg.ScatterCurveModel.estimate_many` batch.

Every round appends a :class:`~repro.obs.events.ControlRoundRecord` to
the decision log. ``wall_ms`` is deliberately left unset on these
records: the audit trail must replay byte-identically from the journal,
and wall clocks do not replay. Wall latencies instead feed the
service's *own* observability — a P² sketch and registry histogram of
per-recommendation latency (each recommendation's amortized share of
its round's estimation batch) plus an SLO monitor with a burn-rate
budget on the controller itself — exported through the existing
OpenMetrics path.

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

from repro.core.deadline import clamp_threshold
from repro.core.localization import CriticalServiceLocator
from repro.core.scg import ConcurrencyEstimate, SCGModel
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
    SeriesState,
    ServiceConfig,
)
from repro.service.ingest import parse_metrics_snapshot, parse_trace_batch
from repro.tracing.analytics import CriticalPathAggregator
from repro.tracing.critical_path import extract_critical_path

__all__ = ["ControlPlane"]

#: Name stamped on every control round the service emits.
CONTROLLER_NAME = "service"


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
        self.analytics.latency_histogram = (
            self.obs.registry.histogram("trace.latency"))
        #: Per-recommendation wall latency in seconds (P50/P99).
        self.latency = QuantileSketch((0.5, 0.99))

        self._series: dict[str, SeriesState] = {}
        #: Per-trace ``service -> upstream self-time budget`` along the
        #: critical path, folded at ingest so round-time propagation is
        #: a mean over this window instead of a re-walk of every trace.
        self._budgets: deque[dict[str, float]] = deque(
            maxlen=cfg.trace_window)
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
        """Fold one OpenMetrics snapshot into the per-service state.

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
                per-series clocks must be non-decreasing).
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
            fresh = [name for name in snapshot.series
                     if name not in self._series]
            if len(self._series) + len(fresh) > cfg.max_series:
                self.obs.registry.counter("service.rejected").inc()
                raise IngestError(
                    "series-limit",
                    f"snapshot would track {len(self._series) + len(fresh)}"
                    f" services (max_series={cfg.max_series})")
            now = (snapshot.time if snapshot.time is not None
                   else self.now + 1.0)
            # Reject time regressions *before* mutating anything: a partial
            # apply would journal nothing yet leave live state diverged
            # from the journal, breaking replay byte-identity.
            stale = sorted(
                name for name, sample in snapshot.series.items()
                if not (np.isnan(sample.concurrency)
                        or np.isnan(sample.rate))
                and name in self._series
                and self._series[name].snapshots > 0
                and now < self._series[name].updated)
            if stale:
                self.obs.registry.counter("service.rejected").inc()
                latest = max(self._series[name].updated for name in stale)
                raise IngestError(
                    "stale-snapshot",
                    f"snapshot time {now} precedes already-observed "
                    f"samples (latest {latest}) for: {', '.join(stale)}")
            self.now = max(self.now, now)
            for name, sample in snapshot.series.items():
                state = self._series.get(name)
                if state is None:
                    state = self._series[name] = SeriesState(name)
                if np.isnan(sample.concurrency) or np.isnan(sample.rate):
                    # Utilization-only enrichment: no pair to append.
                    if sample.utilization is not None:
                        state.utilization = float(sample.utilization)
                    continue
                state.observe(now, sample.concurrency, sample.rate,
                              sample.utilization, sample.allocation)
            self._pending += 1
            self.snapshots_ingested += 1
        self.obs.registry.counter("service.snapshots").inc()
        self.obs.registry.gauge("service.series").set(
            float(len(self._series)))
        return {"accepted": True, "time": now,
                "series": sorted(snapshot.series),
                "pending": self._pending}

    def ingest_traces(self, body: str | bytes) -> dict:
        """Fold one Jaeger-shaped trace batch into the aggregates."""
        with self.flight.phase("ingest.traces"):
            roots = parse_trace_batch(body)
            for root in roots:
                self.analytics.observe(root)
                path = extract_critical_path(root)
                budgets: dict[str, float] = {}
                upstream = 0.0
                for span in path.spans:
                    budgets[span.service] = upstream
                    upstream += span.self_time()
                self._budgets.append(budgets)
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

    def _decide(self, service: str, now: float, threshold: float,
                samples: int,
                estimate: ConcurrencyEstimate | None) -> TargetDecision:
        """Record one service's verdict on its estimate."""
        cfg = self.config
        state = self._series[service]
        previous = self.recommendations.get(service)
        before = (state.allocation if state.allocation is not None
                  else previous.allocation if previous is not None
                  else cfg.min_allocation)
        if estimate is None:
            return TargetDecision(
                target=service, trigger="round", outcome="hold",
                reason="no-estimate", before=before, after=before,
                threshold=threshold, samples=samples)
        allocation = min(cfg.max_allocation,
                         max(cfg.min_allocation,
                             estimate.optimal_concurrency))
        knee = estimate.knee
        knee_q = float(knee.knee_x) if knee.found else None
        knee_rate = float(knee.knee_y) if knee.found else None
        decision = TargetDecision(
            target=service, trigger="round",
            outcome=("applied" if allocation != before else "hold"),
            reason=(estimate.method if allocation != before
                    else "unchanged"),
            before=before, after=allocation, threshold=threshold,
            method=estimate.method,
            knee_concurrency=knee_q,
            knee_rate=knee_rate,
            poly_degree=estimate.fit.degree,
            samples=estimate.samples,
            max_concurrency=float(estimate.max_concurrency),
            fit_r2=(float(estimate.fit_r2)
                    if np.isfinite(estimate.fit_r2) else None))
        self.recommendations[service] = Recommendation(
            service=service, allocation=allocation, before=before,
            method=estimate.method, threshold=threshold,
            round=self.rounds + 1, time=now,
            samples=estimate.samples,
            max_concurrency=float(estimate.max_concurrency),
            poly_degree=estimate.fit.degree,
            fit_r2=(float(estimate.fit_r2)
                    if np.isfinite(estimate.fit_r2) else None),
            knee_concurrency=knee_q,
            knee_rate=knee_rate)
        self.obs.timeline.record(f"rec.{service}", now,
                                 float(allocation))
        return decision

    def _observe_latency(self, wall: float, count: int,
                         now: float) -> None:
        """Feed one estimation batch's wall seconds to the controller's
        own latency telemetry: the batch wall once into the
        decisions/s total, and each of the ``count`` recommendations'
        amortized share into the sketch, histogram and SLO monitor."""
        self._wall_total += wall
        share = wall / count
        histogram = self.obs.registry.histogram(
            "service.recommendation.latency")
        slo = self.obs.slo
        assert slo is not None
        for _ in range(count):
            self.latency.observe(share)
            histogram.observe(share)
            slo.observe(now, share)
        # Exemplar: pin the slowest recommendation to the self-trace
        # of the round that produced it, so the `/metrics` scrape links
        # straight into `/debug/rounds/{id}` (a round's recommendations
        # share one latency, so one link per round suffices).
        histogram.link_exemplar(self.rounds + 1, share, now)

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
        with flight.phase("localization"):
            utilizations = {name: state.utilization
                            for name, state in self._series.items()
                            if state.utilization is not None}
            report = self.locator.locate_from_aggregate(
                self.analytics, utilizations)

            # Only services whose source exports pair telemetry can be
            # estimated; utilization-only series still feed screening
            # and correlations but cannot receive a verdict.
            instrumented = {name for name, state in self._series.items()
                            if state.snapshots > 0}
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
                    windows = [self._series[name].pairs(now - cfg.window)
                               for name in decided]
                    estimates = self.model.estimate_many(
                        windows, [thresholds[name] for name in decided])
                    decisions = tuple(
                        self._decide(name, now, thresholds[name],
                                     len(concurrency), estimate)
                        for name, (concurrency, _rate), estimate
                        in zip(decided, windows, estimates))
                self._observe_latency(timer.elapsed, len(decisions), now)
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
            for state in self._series.values():
                state.prune(now - 2.0 * cfg.window)
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
                                     float(len(self._series)))
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
        decision record: per-series pair windows, the deadline budget
        window, current recommendations (the ``before`` baseline),
        counters, the logical clock, and the critical-path aggregator
        (correlations + top-k paths + sketches). Wall-clock artifacts
        (latency sketches, the SLO monitor, the flight recorder) are
        deliberately excluded — they never reach decision records, so
        a restored plane replays the journal tail byte-identically
        without them.
        """
        return {
            "version": 1,
            "now": self.now,
            "rounds": self.rounds,
            "snapshots_ingested": self.snapshots_ingested,
            "traces_ingested": self.traces_ingested,
            "decisions_made": self.decisions_made,
            "pending": self._pending,
            "series": {name: state.state_dict()
                       for name, state in sorted(self._series.items())},
            "budgets": [dict(entry) for entry in self._budgets],
            "recommendations": {
                name: dataclasses.asdict(rec)
                for name, rec in sorted(self.recommendations.items())},
            "analytics": self.analytics.state_dict(),
        }

    def restore(self, state: dict) -> None:
        """Inverse of :meth:`checkpoint` (call on a fresh plane)."""
        version = state.get("version")
        if version != 1:
            raise ValueError(
                f"unsupported checkpoint version {version!r}")
        cfg = self.config
        self.now = float(state["now"])
        self.rounds = int(state["rounds"])
        self.snapshots_ingested = int(state["snapshots_ingested"])
        self.traces_ingested = int(state["traces_ingested"])
        self.decisions_made = int(state["decisions_made"])
        self._pending = int(state["pending"])
        self._series = {
            name: SeriesState.from_state(name, series_state)
            for name, series_state in state["series"].items()}
        self._budgets = deque(
            ({service: float(budget)
              for service, budget in entry.items()}
             for entry in state["budgets"]),
            maxlen=cfg.trace_window)
        self.recommendations = {
            name: Recommendation(**payload)
            for name, payload in state["recommendations"].items()}
        self.analytics.load_state(state["analytics"])

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
            "series": len(self._series),
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
