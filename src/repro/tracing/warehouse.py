"""Trace warehouse: storage and time-window queries over finished traces.

Stands in for the paper's Jaeger collector + Neo4j/Mongo trace warehouse:
completed request traces (root spans) are stored as they finish, in
order of root departure, and a window query returns the traces that
departed in a time range.

Each stored trace's critical path is extracted once, when it is
recorded, into numpy columns: per trace its root departure, duration and
interned path; per hop its service, processing time and upstream budget.
A :class:`TraceWindow` carries the columns of its traces, so windowed
localization and deadline propagation are column reductions rather than
re-walks of every call tree in every round.

Scale hooks (attached via :meth:`TraceWarehouse.attach`):

* an optional :class:`~repro.tracing.sampling.TraceSampler` decides per
  finished trace whether the trace is stored at all;
* an optional
  :class:`~repro.tracing.analytics.CriticalPathAggregator` observes
  **every** finished trace *before* the sampling decision, so streaming
  aggregates stay exact even when the warehouse stores 5% of traces.

``total_recorded`` likewise counts every finished trace regardless of
sampling: the replay-fingerprint summary folds it in, and sampling is
an observability concern that must never change simulated outcomes.
"""

from __future__ import annotations

import typing as _t
from operator import attrgetter

import numpy as np

from repro.tracing.critical_path import CriticalPath, extract_critical_path
from repro.tracing.span import Span

if _t.TYPE_CHECKING:
    from repro.tracing.analytics import CriticalPathAggregator
    from repro.tracing.sampling import TraceSampler

#: Trace and hop rows the columns start with; both double as needed.
_TRACE_ROWS = 1024
_HOP_ROWS = 4096
#: Traces staged before they are written into the columns in bulk.
_STAGED_ROWS = 1024

_departure = attrgetter("departure")


class TraceWindow(_t.Sequence[Span]):
    """Finished traces with the columns of their critical paths.

    A read-only sequence of root spans. Beside it, one row per trace
    (``duration``, interned ``path``) and one row per hop, trace by
    trace and root first (``hop_service``, ``hop_processing`` and
    ``hop_upstream``, the sum of the processing times above the hop).
    ``paths`` and ``services`` name the interned ids.
    """

    __slots__ = ("_roots", "duration", "path", "hop_start", "hop_service",
                 "hop_processing", "hop_upstream", "paths", "services",
                 "_owner")

    def __init__(self, roots: list[Span], duration: np.ndarray,
                 path: np.ndarray, hop_start: np.ndarray,
                 hop_service: np.ndarray, hop_processing: np.ndarray,
                 hop_upstream: np.ndarray,
                 paths: _t.Sequence[tuple[str, ...]],
                 services: _t.Sequence[str]) -> None:
        self._roots = roots
        self.duration = duration
        self.path = path
        self.hop_start = hop_start
        self.hop_service = hop_service
        self.hop_processing = hop_processing
        self.hop_upstream = hop_upstream
        self.paths = paths
        self.services = services
        self._owner: np.ndarray | None = None

    @classmethod
    def of(cls, traces: _t.Sequence[Span]) -> "TraceWindow":
        """``traces`` as a window: itself if it is one, else the
        critical paths of its roots, extracted in the given order."""
        if isinstance(traces, TraceWindow):
            return traces
        columns = _Columns()
        for root in traces:
            columns.append(root, extract_critical_path(root))
        return columns.window(0, len(columns))

    @property
    def owner(self) -> np.ndarray:
        """The window-relative trace index of every hop."""
        if self._owner is None:
            lengths = np.diff(self.hop_start,
                              append=self.hop_service.size)
            self._owner = np.repeat(np.arange(len(self._roots)), lengths)
        return self._owner

    def service_id(self, service: str) -> int | None:
        """The interned id of ``service``, or ``None`` if no stored
        path crossed it."""
        try:
            return self.services.index(service)
        except ValueError:
            return None

    def __len__(self) -> int:
        return len(self._roots)

    @_t.overload
    def __getitem__(self, index: int) -> Span: ...

    @_t.overload
    def __getitem__(self, index: slice) -> list[Span]: ...

    def __getitem__(self, index):
        return self._roots[index]

    def __iter__(self) -> _t.Iterator[Span]:
        return iter(self._roots)

    def __repr__(self) -> str:
        return f"<TraceWindow of {len(self._roots)} traces>"


class _Columns:
    """Critical-path columns of stored traces.

    Rows ``[head, len(roots))`` are live; dropping from the front only
    moves ``head``. New traces are staged and written into the columns
    in bulk, before any read and every :data:`_STAGED_ROWS` traces.
    Writes go past every window handed out, and any other rewrite
    (growth, compaction, merging in an earlier trace) copies into fresh
    arrays, so a :class:`TraceWindow` holding views stays valid.

    Args:
        capacity: ``None`` keeps the rows in append order. A number
            keeps them stably sorted by root departure, and at each
            write drops the earliest-departed rows past ``capacity``.
    """

    def __init__(self, capacity: int | None = None) -> None:
        self.capacity = capacity
        self.roots: list[Span | None] = []
        self.head = 0
        self.departure = np.empty(_TRACE_ROWS)
        self.duration = np.empty(_TRACE_ROWS)
        self.path = np.empty(_TRACE_ROWS, dtype=np.int32)
        self.hop_start = np.empty(_TRACE_ROWS, dtype=np.int64)
        self.hops = 0
        self.hop_service = np.empty(_HOP_ROWS, dtype=np.int32)
        self.hop_processing = np.empty(_HOP_ROWS)
        self.hop_upstream = np.empty(_HOP_ROWS)
        #: Staged traces as plain lists: roots, departures, durations
        #: and path ids, then the hops' service ids, self times and
        #: upstream budgets. Only the values are kept, so an extracted
        #: path is garbage as soon as it is appended.
        self._staged: tuple[list, ...] = ([], [], [], [], [], [], [])
        #: Interned paths, and path -> (id, its hops' service ids).
        self.paths: list[tuple[str, ...]] = []
        self._path_ids: dict[tuple[str, ...],
                             tuple[int, tuple[int, ...]]] = {}
        self.services: list[str] = []
        self._service_ids: dict[str, int] = {}

    def __len__(self) -> int:
        count = len(self.roots) - self.head + len(self._staged[0])
        return count if self.capacity is None else min(count,
                                                       self.capacity)

    def departures(self) -> np.ndarray:
        """Root departures of the live rows."""
        self._flush()
        return self.departure[self.head:len(self.roots)]

    def live_roots(self) -> list[Span]:
        self._flush()
        return _t.cast(list, self.roots[self.head:])

    def append(self, root: Span, path: CriticalPath) -> None:
        """Add one trace after the others."""
        (roots, departures, durations, path_ids, services, processing,
         upstream) = self._staged
        entry = self._path_ids.get(path.services)
        if entry is None:
            entry = self._intern(path.services)
        roots.append(root)
        departures.append(root.departure)
        durations.append(path.duration)
        path_ids.append(entry[0])
        services.extend(entry[1])
        processing.extend(path.processing)
        upstream.extend(path.upstream)
        if len(roots) >= _STAGED_ROWS:
            self._flush()

    def _flush(self) -> None:
        """Write the staged traces after the live rows, then order and
        trim the rows to the capacity, if there is one."""
        (roots, departures, durations, path_ids, services, processing,
         upstream) = self._staged
        if not roots:
            return
        count, hops = len(roots), len(services)
        if (len(self.roots) + count > self.departure.size
                or self.hops + hops > self.hop_service.size):
            self._rebuild(None, count, hops)
        tail, hop = len(self.roots), self.hops
        rows, hop_rows = slice(tail, tail + count), slice(hop, hop + hops)
        lengths = np.array([len(path) for path in self.paths])[path_ids]
        self.departure[rows] = departures
        self.duration[rows] = durations
        self.path[rows] = path_ids
        self.hop_start[rows] = np.cumsum(lengths) - lengths + hop
        self.hop_service[hop_rows] = services
        self.hop_processing[hop_rows] = processing
        self.hop_upstream[hop_rows] = upstream
        self.roots.extend(roots)
        self.hops += hops
        for column in self._staged:
            column.clear()
        if self.capacity is None:
            return
        written = self.departure[tail:tail + count]
        if tail > self.head and written.min() < self.departure[tail - 1]:
            # A trace departed before one already stored: merge it in
            # (after any that departed at the same time).
            self._rebuild(np.argsort(self.departures(), kind="stable"),
                          0, 0)
        elif (written[1:] < written[:-1]).any():
            self._sort_rows(tail)
        excess = len(self.roots) - self.head - self.capacity
        if excess > 0:
            self.drop_front(excess)

    def _intern(self, services: tuple[str, ...]
                ) -> tuple[int, tuple[int, ...]]:
        ids = self._service_ids
        for service in services:
            if service not in ids:
                ids[service] = len(self.services)
                self.services.append(service)
        entry = (len(self.paths),
                 tuple(ids[service] for service in services))
        self.paths.append(services)
        self._path_ids[services] = entry
        return entry

    def drop_front(self, count: int) -> None:
        """Forget the ``count`` first written live rows."""
        head = self.head
        self.roots[head:head + count] = [None] * count
        self.head = head + count

    def _gather(self, first: int, order: np.ndarray | None
                ) -> tuple[_t.Any, np.ndarray, np.ndarray, int]:
        """The rows ``[first, len(roots))``, in ``order`` (relative to
        ``first``) if given: their row indexes, their hops' indexes,
        the hop starts they get from 0, and their hop count."""
        tail = len(self.roots)
        rows = slice(first, tail) if order is None else first + order
        starts = self.hop_start[rows]
        lengths = np.diff(self.hop_start[first:tail], append=self.hops)
        if order is not None:
            lengths = lengths[order]
        hops = int(lengths.sum())
        new_starts = np.cumsum(lengths) - lengths
        hop_rows = np.repeat(starts - new_starts, lengths) + np.arange(hops)
        return rows, hop_rows, new_starts, hops

    def _sort_rows(self, first: int) -> None:
        """Stably sort the rows from ``first`` on by departure, in
        place; no window shows them yet."""
        order = np.argsort(self.departure[first:len(self.roots)],
                           kind="stable")
        rows, hop_rows, starts, hops = self._gather(first, order)
        end, hop_first = len(self.roots), int(self.hop_start[first])
        for column in (self.departure, self.duration, self.path):
            column[first:end] = column[rows]
        self.hop_start[first:end] = starts + hop_first
        for column in (self.hop_service, self.hop_processing,
                       self.hop_upstream):
            column[hop_first:hop_first + hops] = column[hop_rows]
        self.roots[first:] = [self.roots[first + index]
                              for index in order.tolist()]

    def _rebuild(self, order: np.ndarray | None, extra_rows: int,
                 extra_hops: int) -> None:
        """Copy the live rows, in ``order`` (live-relative) if given,
        into fresh arrays with room for the rows and ``extra_rows`` and
        their hops and ``extra_hops``, twice over."""
        head, tail = self.head, len(self.roots)
        live = tail - head
        rows, hop_rows, new_starts, hops = self._gather(head, order)

        def copy(column: np.ndarray, size: int, index, count: int
                 ) -> np.ndarray:
            fresh = np.empty(size, dtype=column.dtype)
            fresh[:count] = column[index]
            return fresh

        trace_size = max(_TRACE_ROWS, 2 * (live + extra_rows))
        hop_size = max(_HOP_ROWS, 2 * (hops + extra_hops))
        self.departure = copy(self.departure, trace_size, rows, live)
        self.duration = copy(self.duration, trace_size, rows, live)
        self.path = copy(self.path, trace_size, rows, live)
        self.hop_start = copy(new_starts, trace_size, slice(None), live)
        self.hop_service = copy(self.hop_service, hop_size, hop_rows, hops)
        self.hop_processing = copy(self.hop_processing, hop_size,
                                   hop_rows, hops)
        self.hop_upstream = copy(self.hop_upstream, hop_size, hop_rows,
                                 hops)
        self.roots = (self.roots[head:] if order is None else
                      [self.roots[head + index] for index in order.tolist()])
        self.head = 0
        self.hops = hops

    def window(self, lo: int, hi: int) -> TraceWindow:
        """The live rows ``[lo, hi)`` as a window."""
        self._flush()
        head, tail = self.head, len(self.roots)
        first, last = head + lo, head + hi
        hop_lo = int(self.hop_start[first]) if first < tail else self.hops
        hop_hi = int(self.hop_start[last]) if last < tail else self.hops
        return TraceWindow(
            _t.cast(list, self.roots[first:last]),
            self.duration[first:last], self.path[first:last],
            self.hop_start[first:last] - hop_lo,
            self.hop_service[hop_lo:hop_hi],
            self.hop_processing[hop_lo:hop_hi],
            self.hop_upstream[hop_lo:hop_hi],
            self.paths, self.services)


class TraceWarehouse:
    """Bounded store of finished traces, ordered by root departure.

    Args:
        max_traces: capacity; the earliest-departed traces are evicted
            (the real system retains a sliding window of trace data
            too).
        sampler: optional keep/drop policy applied per finished trace.
        analytics: optional streaming aggregator fed every finished
            trace ahead of the sampling decision.
    """

    def __init__(self, max_traces: int = 200_000,
                 sampler: "TraceSampler | None" = None,
                 analytics: "CriticalPathAggregator | None" = None) -> None:
        if max_traces < 1:
            raise ValueError(f"max_traces must be >= 1, got {max_traces}")
        self.max_traces = max_traces
        self._columns = _Columns(max_traces)
        self.total_recorded = 0
        self.sampler = sampler
        self.analytics = analytics

    def attach(self, sampler: "TraceSampler | None" = None,
               analytics: "CriticalPathAggregator | None" = None) -> None:
        """Attach a sampler and/or aggregator after construction.

        Scenario builders create the warehouse; observability wiring
        happens later (CLI flags, matrix cells), so attachment is a
        separate step. Passing ``None`` leaves that slot unchanged.
        """
        if sampler is not None:
            self.sampler = sampler
        if analytics is not None:
            self.analytics = analytics

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def record(self, root: Span) -> None:
        """Account for a finished trace and (if sampled in) store it.

        The critical path is extracted at most once, and shared by the
        aggregator and the columns.
        """
        if root.departure is None:
            raise ValueError("cannot record an unfinished trace")
        self.total_recorded += 1
        path = None
        if self.analytics is not None:
            path = extract_critical_path(root)
            self.analytics.observe(root, path)
        if self.sampler is not None and not self.sampler.sample(root):
            return
        if path is None:
            path = extract_critical_path(root)
        self._columns.append(root, path)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def traces(self, since: float = 0.0,
               until: float = float("inf")) -> TraceWindow:
        """Finished traces whose root departed within ``[since, until)``,
        in departure order."""
        columns = self._columns
        departures = columns.departures()
        lo = int(np.searchsorted(departures, since))
        hi = max(lo, int(np.searchsorted(departures, until)))
        return columns.window(lo, hi)

    def spans_for(self, service: str, since: float = 0.0,
                  until: float = float("inf")) -> list[Span]:
        """Spans of ``service`` in stored traces that departed within
        ``[since, until)``, stably sorted by departure (traces in
        storage order, each walked in pre-order)."""
        return self.spans_by_service([service], since, until)[service]

    def spans_by_service(self, services: _t.Iterable[str],
                         since: float = 0.0, until: float = float("inf")
                         ) -> dict[str, list[Span]]:
        """:meth:`spans_for` of each of ``services``, from one walk of
        the stored traces."""
        found: dict[str, list[Span]] = {service: [] for service in services}
        stack = self._columns.live_roots()[::-1]
        while stack:
            span = stack.pop()
            spans = found.get(span.service)
            departure = span.departure
            if (spans is not None and departure is not None
                    and since <= departure < until):
                spans.append(span)
            if span.children:
                stack.extend(reversed(span.children))
        for spans in found.values():
            spans.sort(key=_departure)
        return found

    def services(self) -> list[str]:
        """Names of the services with a span in a stored trace."""
        return sorted({span.service for root in self._columns.live_roots()
                       for span in root.walk()})

    def coverage(self) -> dict:
        """Sampling-coverage snapshot (meaningful sans sampler too)."""
        snap: dict = {"total_recorded": self.total_recorded,
                      "stored": len(self)}
        if self.sampler is not None:
            snap.update(self.sampler.coverage())
        else:
            snap["sampler"] = "none"
        if self.analytics is not None:
            snap["analytics_traces_observed"] = (
                self.analytics.traces_observed)
        return snap

    # ------------------------------------------------------------------
    # Retention
    # ------------------------------------------------------------------
    def prune(self, before: float) -> int:
        """Drop traces whose root departed before ``before``.

        Long-running monitors call this periodically so memory stays
        proportional to the analysis window, not the run length.
        Returns the number of traces dropped.
        """
        columns = self._columns
        dropped = int(np.searchsorted(columns.departures(), before))
        columns.drop_front(dropped)
        return dropped

    def __len__(self) -> int:
        return len(self._columns)
