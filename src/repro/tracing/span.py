"""Distributed-tracing spans.

The paper's monitoring module records, per request and per microservice,
the arrival and departure timestamps of every message (OpenTracing-style,
via Jaeger/Zipkin). A :class:`Span` is one service's share of one
request: it carries the queueing/arrival timestamp, the processing-start
timestamp (token granted), the departure timestamp, and parent/child
links forming the request's call tree.

Span ids are deterministic **per run**: the simulation allocates them
from :meth:`repro.sim.engine.Environment.next_span_id`, so two
identically seeded runs in the same process export identical ids (the
module-global counter below only backs spans constructed outside any
environment, e.g. hand-built trees in tests or Jaeger imports).
"""

from __future__ import annotations

import typing as _t
from itertools import count

_span_ids = count(1)


class Span:
    """One service invocation within a request's call tree."""

    __slots__ = (
        "span_id", "trace_id", "service", "replica", "operation",
        "parent", "children", "arrival", "started", "departure",
        "cancelled",
    )

    def __init__(self, trace_id: int, service: str, operation: str,
                 arrival: float, parent: "Span | None" = None,
                 replica: str | None = None,
                 span_id: int | None = None) -> None:
        self.span_id = span_id if span_id is not None else next(_span_ids)
        self.trace_id = trace_id
        self.service = service
        self.operation = operation
        self.replica = replica
        self.parent = parent
        self.children: list[Span] = []
        #: Request arrival at the service (enqueue time).
        self.arrival = arrival
        #: Processing start (soft-resource token granted).
        self.started: float | None = None
        #: Response departure from the service.
        self.departure: float | None = None
        #: Whether the span was cut short by cancellation (quorum/hedge
        #: straggler interrupts, call timeouts). Cancelled spans still
        #: carry a valid departure — stamped when the interrupt unwinds.
        self.cancelled = False
        if parent is not None:
            parent.children.append(self)

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        """Whether the span has departed."""
        return self.departure is not None

    @property
    def duration(self) -> float:
        """End-to-end residence time at this service (queue + work +
        downstream waits)."""
        if self.departure is None:
            raise ValueError(f"span {self.span_id} has not finished")
        return self.departure - self.arrival

    @property
    def queue_wait(self) -> float:
        """Time spent waiting for the service's soft resource."""
        if self.started is None:
            return 0.0
        return self.started - self.arrival

    def self_time(self) -> float:
        """Processing time of this service *excluding* downstream waits.

        This is the paper's :math:`PT_{s_i}` (request + response
        processing of service :math:`s_i`): the span's duration minus the
        union of its children's wall-clock intervals (overlapping parallel
        calls are not double-counted).
        """
        total = self.duration
        intervals = sorted(
            (c.arrival, c.departure) for c in self.children
            if c.departure is not None)
        covered = 0.0
        cursor: float | None = None
        end_cursor = 0.0
        for start, end in intervals:
            if cursor is None or start > end_cursor:
                if cursor is not None:
                    covered += end_cursor - cursor
                cursor, end_cursor = start, end
            else:
                end_cursor = max(end_cursor, end)
        if cursor is not None:
            covered += end_cursor - cursor
        return max(0.0, total - covered)

    # ------------------------------------------------------------------
    # Tree helpers
    # ------------------------------------------------------------------
    def walk(self) -> _t.Iterator["Span"]:
        """Pre-order traversal of this span and its descendants."""
        stack = [self]
        while stack:
            span = stack.pop()
            yield span
            stack.extend(reversed(span.children))

    def find(self, service: str) -> "Span | None":
        """First descendant (or self) belonging to ``service``."""
        for span in self.walk():
            if span.service == service:
                return span
        return None

    def depth(self) -> int:
        """Distance from the root span (root = 0)."""
        depth, span = 0, self
        while span.parent is not None:
            depth += 1
            span = span.parent
        return depth

    def __repr__(self) -> str:
        when = (f"[{self.arrival:.4f}..{self.departure:.4f}]"
                if self.departure is not None else f"[{self.arrival:.4f}..)")
        return f"<Span {self.service}/{self.operation} {when}>"
