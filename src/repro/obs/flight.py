"""Flight recorder: the one wall-clock self-timer of both controllers.

The embedded controller (:mod:`repro.core.sora`) and the service
(:mod:`repro.service.control`) time themselves through
:meth:`FlightRecorder.phase` under the shared :data:`PHASES` names.
Every phase feeds a per-phase count/total/max aggregate (the reports'
phase table). A phase entered while a round is open — between
:meth:`~FlightRecorder.begin_round` and
:meth:`~FlightRecorder.record_round` — also becomes a child span of
that round, nested under the phase it ran in: both controllers'
``scg_estimation`` carries exactly one ``estimate.batch`` child, the
single batched estimation of every target or series the round decides
(each of the service's recommendations has that batch's wall divided
by the number of decisions as its latency). Rounds are kept
as :class:`~repro.tracing.span.Span` trees in a bounded ring; span
times are quantized to the microseconds the Jaeger export serializes,
so the export served by ``/debug/rounds/{id}`` round-trips through
:func:`repro.tracing.export.traces_from_jaeger` as a fixed point.

The recorder reads only wall clocks, which never reach decisions or
simulated time: decision JSONL, replay fingerprints and golden
snapshots are the same with it on or off.
"""

from __future__ import annotations

import time as _time
import typing as _t
from collections import deque

from repro.tracing.export import trace_to_jaeger
from repro.tracing.span import Span

__all__ = ["FlightRecorder", "PHASES", "PhaseTimer", "SELF_SERVICE"]

#: Phase names, in pipeline order, as they appear in span operations
#: and per-round ``phase_ms`` maps — for both controllers.
PHASES = ("ingest", "localization", "deadline_propagation",
          "scg_estimation", "decision")

#: Service name stamped on every self-trace span.
SELF_SERVICE = "sora-control-plane"


def _quantize(seconds: float) -> float:
    """Snap a timestamp to the microsecond grid the export serializes."""
    return round(seconds * 1e6) / 1e6


def _span(operation: str, start: float, parent: Span | None = None,
          end: float | None = None) -> Span:
    """A self-trace span; its trace id is stamped when the round
    closes."""
    span = Span(0, SELF_SERVICE, operation, _quantize(start),
                parent=parent)
    span.started = span.arrival
    if end is not None:
        span.departure = _quantize(end)
    return span


def _span_tree_dict(span: Span) -> dict:
    """JSON-ready nested view of one span (ms durations for humans)."""
    return {
        "span_id": span.span_id,
        "service": span.service,
        "operation": span.operation,
        "start_s": span.arrival,
        "duration_ms": round(span.duration * 1e3, 3),
        "children": [_span_tree_dict(child) for child in span.children],
    }


class PhaseTimer:
    """One entry into a named phase; ``elapsed`` holds its wall
    seconds after the ``with`` block. A phase that raises is left out
    of the aggregate and of the ingest scratch (a rejected ingest is
    not an ingest)."""

    __slots__ = ("name", "start", "elapsed", "_recorder", "_span")

    def __init__(self, recorder: "FlightRecorder", name: str) -> None:
        self._recorder = recorder
        self.name = name
        self.start = self.elapsed = 0.0
        self._span: Span | None = None

    def __enter__(self) -> "PhaseTimer":
        recorder = self._recorder
        self.start = recorder.clock()
        if recorder._open:
            self._span = _span(self.name, self.start, recorder._open[-1])
            recorder._open.append(self._span)
        return self

    def __exit__(self, exc_type, _exc, _tb) -> None:
        recorder = self._recorder
        end = recorder.clock()
        self.elapsed = elapsed = end - self.start
        if self._span is not None:
            self._span.departure = _quantize(end)
            recorder._open.pop()
        if exc_type is not None:
            if len(recorder._open) == 1:
                # A top-level phase raised: the round will never be
                # recorded, so later ingests must not attach to it.
                recorder._open = []
            return
        family = self.name.partition(".")[0]
        stats = recorder._stats.setdefault(family, [0, 0.0, 0.0])
        stats[0] += 1
        stats[1] += elapsed
        stats[2] = max(stats[2], elapsed)
        if family == "ingest" and self._span is None and recorder:
            recorder._pending.append((self.name, self.start, end))


class FlightRecorder:
    """Phase timings plus a bounded ring of self-traced rounds.

    Args:
        max_rounds: ring capacity; ``0`` disables the ring (the
            recorder is falsy, builds no spans, and keeps only the
            per-phase aggregate).
    """

    def __init__(self, max_rounds: int = 256) -> None:
        if max_rounds < 0:
            raise ValueError(
                f"max_rounds must be >= 0, got {max_rounds}")
        self.max_rounds = max_rounds
        self.enabled = max_rounds > 0
        self._rounds: deque[dict] = deque(maxlen=max(1, max_rounds))
        #: ``[count, total_s, max_s]`` per phase family: the name before
        #: the first dot, so every ``estimate.<target>`` shares a row.
        self._stats: dict[str, list] = {}
        #: ``(name, start, end)`` of ``ingest.*`` phases finished
        #: between rounds, folded into the next one; bounded so a
        #: scrape storm cannot grow memory.
        self._pending: deque[tuple[str, float, float]] = deque(
            maxlen=4096)
        #: Spans of the open round, root first and innermost running
        #: phase last; empty while no round is open.
        self._open: list[Span] = []
        self._round_started = 0.0
        self._t0 = _time.perf_counter()
        self.rounds_recorded = 0

    def __bool__(self) -> bool:
        return self.enabled

    def __len__(self) -> int:
        return len(self._rounds)

    def clock(self) -> float:
        """Monotonic wall seconds since the recorder was created."""
        return _time.perf_counter() - self._t0

    def phase(self, name: str) -> PhaseTimer:
        """Context manager timing one entry into phase ``name``."""
        return PhaseTimer(self, name)

    def begin_round(self) -> None:
        """Open a round (no-op when the ring is disabled)."""
        if self.enabled:
            self._round_started = self.clock()
            self._open = [_span("round", self._round_started)]

    def record_round(self, *, round_index: int, time: float,
                     trigger: str, critical_service: str | None,
                     decisions: _t.Sequence[str]) -> float:
        """Close the open round, fold it into a span tree and retain it.

        ``round_index`` doubles as the trace id; ``time`` is the
        round's logical time (span clocks are wall). Returns the
        round's wall milliseconds.
        """
        recorded = self.clock()
        root = self._open[0]
        self._open = []
        phase_ms = dict.fromkeys(PHASES, 0.0)
        for child in root.children:
            if child.operation in phase_ms:
                phase_ms[child.operation] += child.duration * 1e3
        pending = list(self._pending)
        self._pending.clear()
        phase_ms["ingest"] += sum(end - start
                                  for _n, start, end in pending) * 1e3
        ingest = {"metrics": 0, "traces": 0}
        # One span per ingest kind, from its first start to last end.
        for name in sorted({name for name, _s, _e in pending}):
            ops = [(start, end) for kind, start, end in pending
                   if kind == name]
            ingest[name.partition(".")[2]] = len(ops)
            _span(name, min(start for start, _e in ops), root,
                  max(end for _s, end in ops))
        root.children.sort(key=lambda span: span.arrival)
        root.arrival = root.started = min(
            [root.arrival] + [child.arrival for child in root.children])
        root.departure = _quantize(recorded)
        for span in root.walk():
            span.trace_id = round_index

        wall_ms = round((recorded - self._round_started) * 1e3, 3)
        self._rounds.append({
            "round": round_index,
            "trace_id": format(round_index, "032x"),
            "time": time,
            "trigger": trigger,
            "critical_service": critical_service,
            "decisions": list(decisions),
            "wall_ms": wall_ms,
            "phase_ms": {name: round(ms, 3)
                         for name, ms in phase_ms.items()},
            "ingest": ingest,
            "root": root,
        })
        self.rounds_recorded += 1
        return wall_ms

    def phase_summary(self) -> dict[str, dict]:
        """JSON-ready per-phase aggregates (times in milliseconds)."""
        return {name: {"count": count,
                       "total_ms": round(total * 1e3, 3),
                       "mean_ms": round(total / count * 1e3, 3),
                       "max_ms": round(peak * 1e3, 3)}
                for name, (count, total, peak)
                in sorted(self._stats.items())}

    def summaries(self) -> list[dict]:
        """Retained rounds, oldest first, without span trees."""
        return [{key: value for key, value in entry.items()
                 if key != "root"} for entry in self._rounds]

    def round(self, round_index: int) -> dict | None:
        """One retained round with its span tree and Jaeger export."""
        for entry in self._rounds:
            if entry["round"] == round_index:
                payload = {key: value for key, value in entry.items()
                           if key != "root"}
                payload["spans"] = _span_tree_dict(entry["root"])
                payload["jaeger"] = {"data": [trace_to_jaeger(
                    entry["root"])]}
                return payload
        return None
