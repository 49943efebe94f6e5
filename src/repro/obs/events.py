"""Typed decision/event records and the bounded decision log.

Every control round of a :class:`~repro.core.sora.
ConcurrencyAdaptationFramework` emits one :class:`ControlRoundRecord`
capturing *why* the controller did what it did: the localized critical
service and its Pearson correlations, the propagated RT threshold, the
fitted polynomial degree and knee point, and — per adaptation target —
the chosen pool size or the reason the round held (drift, saturation,
censored window, idle pool). Hardware scale events and drift
detections land in the same log, so one JSONL file replays the whole
causal chain of a run.

Records are plain dataclasses with a stable ``kind`` tag and a
``to_dict`` that emits JSON-ready primitives; :func:`record_from_dict`
inverts the mapping for JSONL round trips.
"""

from __future__ import annotations

import json
import pathlib
import typing as _t
from collections import deque
from dataclasses import asdict, dataclass, field, fields

#: Why a target's allocation changed — or why it did not.
DecisionOutcome = _t.Literal["applied", "hold"]


class _Record:
    """The JSON round trip shared by the typed records."""

    kind: _t.ClassVar[str]
    #: Converters applied to payload fields when rebuilding a record.
    _CONVERT: _t.ClassVar[dict[str, _t.Callable]] = {}

    def to_dict(self) -> dict:
        """JSON-ready record payload: the kind tag, then every field."""
        return {"kind": self.kind, **vars(self)}

    @classmethod
    def from_dict(cls, payload: dict):
        """Rebuild a record from its ``to_dict`` payload: each field the
        payload carries, converted where ``_CONVERT`` says; absent
        fields keep their defaults."""
        values = {item.name: payload[item.name] for item in fields(cls)
                  if item.name in payload}
        for name, function in cls._CONVERT.items():
            if name in values:
                values[name] = function(values[name])
        return cls(**values)


def _round_floats(mapping: dict[str, float],
                  digits: int = 4) -> dict[str, float]:
    return {key: round(float(value), digits)
            for key, value in mapping.items()}


@dataclass(frozen=True)
class TargetDecision(_Record):
    """One target's verdict within a control round.

    Attributes:
        target: the soft-resource target's name.
        trigger: what initiated the evaluation (periodic / scale-event
            / bootstrap).
        outcome: "applied" (allocation changed) or "hold".
        reason: machine-readable cause — the estimate method ("knee",
            "argmax"), the policy rule that fired
            ("saturation-grow", "saturation-capped", "overload-shed",
            "overload-floor", "edge-unpressed-hold", "edge-grow",
            "edge-shrink", "idle-hold", "unchanged", "no-estimate";
            see :mod:`repro.core.policy`), or the embedded
            controller's hardware-scale reaction ("proportional",
            "replica-track").
        before / after: per-replica allocation around the decision
            (``after == before`` for holds).
        threshold: propagated RT threshold active during the window
            (``None`` for latency-agnostic SCT).
        method: the estimate method when a model estimate existed.
        knee_concurrency / knee_rate: the accepted knee point.
        poly_degree: degree of the accepted polynomial fit.
        samples: raw pairs the model consumed.
        max_concurrency: highest observed concurrency in the window
            (evidence ceiling for the recommendation).
        growth_can_help: the §3.2 growth-gate verdict, when evaluated.
        fit_r2: coefficient of determination of the accepted
            polynomial fit over the aggregated scatter (1.0 = perfect;
            knee-confidence diagnostic).
        knee_prominence: normalized Kneedle difference-curve height at
            the accepted knee (larger = sharper knee; knee-confidence
            diagnostic).
        curve: optional downsampled ``[concurrency, rate]`` snapshot of
            the fitted curve, for knee plots in the report.
    """

    kind: _t.ClassVar[str] = "decision"
    _CONVERT: _t.ClassVar[dict[str, _t.Callable]] = {
        "curve": lambda curve: (tuple((q, r) for q, r in curve)
                                if curve is not None else None)}

    target: str
    trigger: str
    outcome: DecisionOutcome
    reason: str
    before: int
    after: int
    threshold: float | None = None
    method: str | None = None
    knee_concurrency: float | None = None
    knee_rate: float | None = None
    poly_degree: int | None = None
    samples: int | None = None
    max_concurrency: float | None = None
    growth_can_help: bool | None = None
    fit_r2: float | None = None
    knee_prominence: float | None = None
    curve: tuple[tuple[float, float], ...] | None = None

    def to_dict(self) -> dict:
        """JSON-ready record payload (unset diagnostics omitted)."""
        payload: dict[str, _t.Any] = {"kind": self.kind}
        for name, value in vars(self).items():
            if value is not None:
                payload[name] = value
        if self.curve is not None:
            payload["curve"] = [[q, r] for q, r in self.curve]
        return payload


@dataclass(frozen=True)
class ControlRoundRecord(_Record):
    """One adapter iteration: localization context + target decisions."""

    kind: _t.ClassVar[str] = "control-round"
    _CONVERT: _t.ClassVar[dict[str, _t.Callable]] = {
        "dominant_path": tuple, "correlations": dict,
        "candidates": tuple, "thresholds": dict,
        "decisions": lambda decisions: tuple(
            TargetDecision.from_dict(d) for d in decisions)}

    time: float
    controller: str
    trigger: str
    critical_service: str | None = None
    dominant_path: tuple[str, ...] = ()
    correlations: dict[str, float] = field(default_factory=dict)
    candidates: tuple[str, ...] = ()
    thresholds: dict[str, float] = field(default_factory=dict)
    decisions: tuple[TargetDecision, ...] = ()
    traces: int = 0
    wall_ms: float | None = None

    def to_dict(self) -> dict:
        """JSON-ready record payload."""
        payload: dict[str, _t.Any] = {
            "kind": self.kind,
            "time": self.time,
            "controller": self.controller,
            "trigger": self.trigger,
            "critical_service": self.critical_service,
            "dominant_path": list(self.dominant_path),
            "correlations": _round_floats(self.correlations),
            "candidates": list(self.candidates),
            "thresholds": _round_floats(self.thresholds, digits=6),
            "decisions": [d.to_dict() for d in self.decisions],
            "traces": self.traces,
        }
        if self.wall_ms is not None:
            payload["wall_ms"] = round(self.wall_ms, 3)
        return payload


@dataclass(frozen=True)
class ScaleEventRecord(_Record):
    """A hardware scaling action, as seen by the observability layer."""

    kind: _t.ClassVar[str] = "scale-event"

    time: float
    service: str
    scale_kind: str
    before: float
    after: float
    autoscaler: str | None = None


@dataclass(frozen=True)
class DriftRecord(_Record):
    """A Page-Hinkley regime-shift detection on one target."""

    kind: _t.ClassVar[str] = "drift"

    time: float
    target: str


@dataclass(frozen=True)
class FaultRecord(_Record):
    """An injected fault transition (see :mod:`repro.faults`).

    Attributes:
        time: simulated time of the transition.
        fault: fault kind ("crash", "interference", "edge-latency",
            "edge-failure", "blackout").
        phase: "inject" when the fault begins, "recover" when it
            clears.
        service: affected service, for service-scoped faults.
        edge: ``"caller->callee"``, for edge-scoped faults.
        detail: kind-specific magnitudes (demand factor, probability,
            dropped request count, ...), JSON-ready.
    """

    kind: _t.ClassVar[str] = "fault"
    _CONVERT: _t.ClassVar[dict[str, _t.Callable]] = {"detail": dict}

    time: float
    fault: str
    phase: str
    service: str | None = None
    edge: str | None = None
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready record payload (unset fields omitted)."""
        return {"kind": self.kind,
                **{name: value for name, value in asdict(self).items()
                   if value is not None and value != {}}}


@dataclass(frozen=True)
class AlertRecord(_Record):
    """An SLO burn-rate alert transition (see :mod:`repro.obs.slo`).

    Attributes:
        time: simulated time of the transition.
        slo: name of the SLO the rule guards.
        rule: alert rule name ("fast-burn", "slow-burn", ...).
        phase: "fire" on the rising edge, "clear" on the falling edge.
        severity: "page" or "ticket" (SRE-workbook convention).
        burn_long: long-window burn rate at the transition.
        burn_short: short-window burn rate at the transition.
        factor: the rule's burn-rate threshold.
        budget_remaining: fraction of the sliding-window error budget
            still unspent at the transition (may be negative).
    """

    kind: _t.ClassVar[str] = "alert"

    time: float
    slo: str
    rule: str
    phase: str
    severity: str
    burn_long: float
    burn_short: float
    factor: float
    budget_remaining: float

    def to_dict(self) -> dict:
        """JSON-ready record payload."""
        return {"kind": self.kind, **vars(self),
                "burn_long": round(self.burn_long, 4),
                "burn_short": round(self.burn_short, 4),
                "budget_remaining": round(self.budget_remaining, 6)}


ObsRecord = _t.Union[ControlRoundRecord, TargetDecision,
                     ScaleEventRecord, DriftRecord, FaultRecord,
                     AlertRecord]

_RECORD_TYPES: dict[str, type] = {
    cls.kind: cls
    for cls in (ControlRoundRecord, TargetDecision, ScaleEventRecord,
                DriftRecord, FaultRecord, AlertRecord)
}


def record_from_dict(payload: dict) -> ObsRecord:
    """Rebuild a typed record from its ``to_dict`` payload."""
    kind = payload.get("kind")
    cls = _RECORD_TYPES.get(_t.cast(str, kind))
    if cls is None:
        raise ValueError(f"unknown record kind {kind!r}")
    return cls.from_dict(payload)


class DecisionLog:
    """Bounded, append-only store of observability records.

    The cap makes the log safe to leave enabled on long runs; the
    oldest records are evicted first. All report rendering and JSONL
    export run off this object.
    """

    def __init__(self, max_records: int = 4096) -> None:
        if max_records < 1:
            raise ValueError(
                f"max_records must be >= 1, got {max_records}")
        self._records: deque[ObsRecord] = deque(maxlen=max_records)
        self.total_recorded = 0

    def append(self, record: ObsRecord) -> None:
        """Retain one record (oldest evicted past capacity)."""
        self._records.append(record)
        self.total_recorded += 1

    def records(self, kind: str | None = None) -> list[ObsRecord]:
        """All retained records, optionally filtered by ``kind``."""
        if kind is None:
            return list(self._records)
        return [r for r in self._records if r.kind == kind]

    def rounds(self) -> list[ControlRoundRecord]:
        """All retained control-round records, oldest first."""
        return _t.cast("list[ControlRoundRecord]",
                       self.records(ControlRoundRecord.kind))

    def applied(self) -> list[tuple[float, TargetDecision]]:
        """``(time, decision)`` for every allocation change, in order.

        Covers both decisions nested in control rounds and standalone
        scale-triggered decisions (whose time is the enclosing round's
        or the scale event's).
        """
        changes: list[tuple[float, TargetDecision]] = []
        for record in self._records:
            if isinstance(record, ControlRoundRecord):
                changes.extend((record.time, decision)
                               for decision in record.decisions
                               if decision.outcome == "applied")
        return changes

    def scale_events(self) -> list[ScaleEventRecord]:
        """All retained autoscaler scale events, oldest first."""
        return _t.cast("list[ScaleEventRecord]",
                       self.records(ScaleEventRecord.kind))

    def fault_events(self) -> list[FaultRecord]:
        """All retained fault-injection records, oldest first."""
        return _t.cast("list[FaultRecord]",
                       self.records(FaultRecord.kind))

    def alerts(self) -> list[AlertRecord]:
        """All retained burn-rate alert records, oldest first."""
        return _t.cast("list[AlertRecord]",
                       self.records(AlertRecord.kind))

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> _t.Iterator[ObsRecord]:
        return iter(self._records)

    # ------------------------------------------------------------------
    # JSONL round trip
    # ------------------------------------------------------------------
    def to_jsonl(self) -> str:
        """One JSON object per line, in record order."""
        return "\n".join(json.dumps(r.to_dict(), sort_keys=True)
                         for r in self._records)

    def write_jsonl(self, path: str | pathlib.Path) -> int:
        """Write the log to ``path``; returns the record count."""
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        text = self.to_jsonl()
        path.write_text(text + ("\n" if text else ""),
                        encoding="utf-8")
        return len(self._records)

    @classmethod
    def from_jsonl(cls, text: str,
                   max_records: int = 4096) -> "DecisionLog":
        """Parse a JSONL document produced by :meth:`to_jsonl`."""
        log = cls(max_records=max_records)
        for line in text.splitlines():
            line = line.strip()
            if line:
                log.append(record_from_dict(json.loads(line)))
        return log

    @classmethod
    def read_jsonl(cls, path: str | pathlib.Path,
                   max_records: int = 4096) -> "DecisionLog":
        return cls.from_jsonl(
            pathlib.Path(path).read_text(encoding="utf-8"),
            max_records=max_records)
