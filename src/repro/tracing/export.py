"""Trace export in a Jaeger-compatible JSON shape.

The paper's monitoring stack stores OpenTracing spans via Jaeger; this
module serializes simulated traces into the same structure Jaeger's
HTTP API returns (``data[].spans[]`` with microsecond timestamps and
``CHILD_OF`` references), so external tooling — or a human with `jq` —
can inspect simulated request flows exactly like production ones.
"""

from __future__ import annotations

import json
import math
import typing as _t
from bisect import bisect_right

from repro.tracing.span import Span

if _t.TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.obs.events import TargetDecision

#: Simulated time zero maps to this epoch microsecond (arbitrary but
#: stable, so exported traces are reproducible byte-for-byte).
EPOCH_US = 1_600_000_000_000_000

#: ``(time, decision)`` pairs as returned by
#: :meth:`repro.obs.events.DecisionLog.applied`.
AppliedDecisions = _t.Sequence[tuple[float, "TargetDecision"]]


def _decision_tags(arrival: float,
                   decisions: AppliedDecisions) -> list[dict]:
    """Audit tags for the allocation decision active at ``arrival``.

    Picks the latest applied decision at or before the trace's arrival,
    so a span links back to the control round that set the soft-resource
    allocation it ran under.
    """
    times = [time for time, _decision in decisions]
    index = bisect_right(times, arrival) - 1
    if index < 0:
        return []
    _time, decision = decisions[index]
    tags = [
        {"key": "sora.target", "type": "string",
         "value": decision.target},
        {"key": "sora.allocation", "type": "int64",
         "value": decision.after},
        {"key": "sora.reason", "type": "string",
         "value": decision.reason},
    ]
    if decision.threshold is not None:
        tags.append({"key": "sora.threshold_ms", "type": "float64",
                     "value": round(decision.threshold * 1e3, 3)})
    if decision.knee_concurrency is not None:
        tags.append({"key": "sora.knee_concurrency", "type": "float64",
                     "value": round(decision.knee_concurrency, 3)})
    return tags


def _self_time_us(span: Span) -> int:
    """Self time in whole microseconds, from the *quantized* intervals.

    Mirrors :meth:`Span.self_time` (duration minus the union of child
    wall-clock intervals) but runs on the same rounded microsecond
    values the document serializes. Rounding the float self time
    instead can land one microsecond off after an import re-quantizes
    every timestamp — with quantized inputs the tag is a pure function
    of the serialized fields and export -> import -> export holds.
    """
    total = max(0, round(span.duration * 1e6))
    intervals = sorted(
        (round(c.arrival * 1e6),
         round(c.arrival * 1e6) + max(0, round(c.duration * 1e6)))
        for c in span.children if c.departure is not None)
    covered = 0
    cursor: int | None = None
    end_cursor = 0
    for start, end in intervals:
        if cursor is None or start > end_cursor:
            if cursor is not None:
                covered += end_cursor - cursor
            cursor, end_cursor = start, end
        else:
            end_cursor = max(end_cursor, end)
    if cursor is not None:
        covered += end_cursor - cursor
    return max(0, total - covered)


def _span_dict(span: Span, trace_id: str) -> dict:
    # round(), not int(): truncation would turn float error just below
    # a microsecond boundary (5999.999...) into an off-by-one, breaking
    # byte-stability of export -> import -> export.
    start_us = EPOCH_US + round(span.arrival * 1e6)
    # Clamp: a cancelled span's departure is stamped at interrupt time,
    # which float error can place a hair before its arrival; Jaeger
    # durations must be non-negative.
    duration_us = max(0, round(span.duration * 1e6))
    references = []
    if span.parent is not None:
        references.append({
            "refType": "CHILD_OF",
            "traceID": trace_id,
            "spanID": format(span.parent.span_id, "016x"),
        })
    tags = [
        {"key": "operation", "type": "string", "value": span.operation},
        # Clamped to the span's duration: the importer caps the service
        # start at departure, so a larger tag would not survive a trip.
        {"key": "queue_wait_us", "type": "int64",
         "value": min(round(span.queue_wait * 1e6), duration_us)},
        {"key": "self_time_us", "type": "int64",
         "value": _self_time_us(span)},
    ]
    if span.replica is not None:
        tags.append({"key": "replica", "type": "string",
                     "value": span.replica})
    if span.cancelled:
        # Only emitted when set, so pre-existing exports of untouched
        # traces stay byte-identical.
        tags.append({"key": "cancelled", "type": "bool", "value": True})
    return {
        "traceID": trace_id,
        "spanID": format(span.span_id, "016x"),
        "operationName": f"{span.service}.{span.operation}",
        "references": references,
        "startTime": start_us,
        "duration": duration_us,
        "tags": tags,
        "processID": span.service,
    }


def trace_to_jaeger(root: Span, *,
                    decisions: AppliedDecisions | None = None) -> dict:
    """One finished trace as a Jaeger ``data[]`` element.

    Args:
        root: the finished root span.
        decisions: optional applied adaptation decisions (see
            :meth:`repro.obs.events.DecisionLog.applied`); when given,
            the root span is tagged with the allocation, threshold, and
            knee point in force when the trace arrived.
    """
    if not root.finished:
        raise ValueError("cannot export an unfinished trace")
    trace_id = format(root.trace_id, "032x")
    spans = [_span_dict(span, trace_id) for span in root.walk()]
    if decisions:
        spans[0]["tags"].extend(_decision_tags(root.arrival, decisions))
    processes = {
        span.service: {"serviceName": span.service, "tags": []}
        for span in root.walk()
    }
    return {"traceID": trace_id, "spans": spans, "processes": processes}


def export_traces(roots: _t.Iterable[Span], *, indent: int | None = None,
                  decisions: AppliedDecisions | None = None) -> str:
    """Serialize traces to a Jaeger-API-shaped JSON document."""
    document = {"data": [trace_to_jaeger(root, decisions=decisions)
                         for root in roots]}
    return json.dumps(document, indent=indent, sort_keys=True)


def write_traces(path: str, roots: _t.Iterable[Span], *,
                 decisions: AppliedDecisions | None = None) -> int:
    """Write traces to ``path``; returns the number exported."""
    data = [trace_to_jaeger(root, decisions=decisions)
            for root in roots]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"data": data}, handle, sort_keys=True)
    return len(data)


def _tag_value(span_dict: dict, key: str) -> _t.Any | None:
    for tag in span_dict.get("tags", ()):
        if tag.get("key") == key:
            return tag.get("value")
    return None


def _trace_from_jaeger(element: dict) -> Span:
    trace_id = int(element["traceID"], 16)
    by_id: dict[str, Span] = {}
    children: dict[str, list[str]] = {}
    root_id: str | None = None
    for span_dict in element["spans"]:
        arrival = (span_dict["startTime"] - EPOCH_US) / 1e6
        duration_us = span_dict.get("duration", 0)
        # Critical-path durations feed quantile sketches, whose domain
        # is finite and non-negative.
        if not (math.isfinite(arrival) and 0 <= duration_us < math.inf):
            raise ValueError(
                f"span {span_dict['spanID']} needs a finite startTime "
                f"and a finite, non-negative duration")
        span = Span(trace_id=trace_id,
                    service=span_dict["processID"],
                    operation=_tag_value(span_dict, "operation") or "",
                    arrival=arrival,
                    replica=_tag_value(span_dict, "replica"))
        # Preserve the exported identity instead of the fresh counter
        # value so export -> import -> export is a fixed point.
        span.span_id = int(span_dict["spanID"], 16)
        queue_wait_us = _tag_value(span_dict, "queue_wait_us") or 0
        span.departure = arrival + duration_us / 1e6
        # Foreign documents may omit the queue_wait tag or carry one
        # larger than a (zero-)duration span; clamp so service start
        # never passes departure.
        span.started = min(arrival + queue_wait_us / 1e6,
                           span.departure)
        span.cancelled = bool(_tag_value(span_dict, "cancelled"))
        by_id[span_dict["spanID"]] = span
        parents = [ref["spanID"]
                   for ref in span_dict.get("references", ())
                   if ref.get("refType") == "CHILD_OF"
                   and "spanID" in ref]
        if parents:
            children.setdefault(parents[0], []).append(
                span_dict["spanID"])
        else:
            root_id = span_dict["spanID"]
    if root_id is None:
        raise ValueError(f"trace {element['traceID']} has no root span")
    for parent_id, child_ids in children.items():
        parent = by_id[parent_id]
        for child_id in child_ids:
            child = by_id[child_id]
            child.parent = parent
            parent.children.append(child)
    return by_id[root_id]


def traces_from_jaeger(document: str | dict) -> list[Span]:
    """Parse a Jaeger-API-shaped document back into span trees.

    Inverse of :func:`export_traces` up to the microsecond timestamp
    truncation the Jaeger shape imposes: a second export of the parsed
    spans reproduces the document byte-for-byte.
    """
    if isinstance(document, str):
        document = json.loads(document)
    return [_trace_from_jaeger(element) for element in document["data"]]
