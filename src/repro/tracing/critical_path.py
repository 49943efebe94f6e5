"""Critical path extraction from request call trees.

A *critical path* of a call graph is the path of maximal duration that
starts with the user request and ends with the final response (paper
§3.1, footnote 1). Under synchronous RPC semantics the parent span
always encloses its children, so the path is built top-down: at each
span, descend into the child whose completion *determines* the parent's
critical timing — the longest child among each group of time-overlapping
(parallel) children; with purely sequential children, the longest child
is the one that dominates the parent's variability.

:func:`extract_critical_path` computes everything the SCG phases read
off a path in the same walk: the dominant child and the span's self
time (:meth:`Span.self_time`) come from one sort of its finished
children by arrival, and the upstream budget of each hop is summed as
the walk descends.
"""

from __future__ import annotations

import typing as _t
from operator import attrgetter

from repro.tracing.span import Span

_arrival = attrgetter("arrival")


class CriticalPath(_t.NamedTuple):
    """An ordered root-to-leaf chain of spans with timing attribution.

    Attributes:
        spans: the chain, root first.
        services: service names along the chain.
        processing: per-hop processing time :math:`PT_{s_i}` (the
            span's downstream-excluded self time).
        upstream: per-hop sum of the processing times above the hop,
            added left to right from 0 (the hop's upstream budget).
        duration: end-to-end duration of the path (root residence
            time, :math:`RT_{CP}`).
    """

    spans: tuple[Span, ...]
    services: tuple[str, ...]
    processing: tuple[float, ...]
    upstream: tuple[float, ...]
    duration: float

    def self_times(self) -> dict[str, float]:
        """Per-service processing time (:math:`PT_{s_i}`) along the path."""
        return dict(zip(self.services, self.processing))


def extract_critical_path(root: Span) -> CriticalPath:
    """Walk the call tree from ``root`` and return its critical path.

    Each span on the path sorts its finished children by arrival once.
    One sweep over them merges their intervals (the span's self time is
    its duration minus their union, as :meth:`Span.self_time` computes
    it) and groups them into overlapping clusters: the cluster ending
    last gates the span's completion, and its longest child (the first
    of equals) is the next hop. Unfinished children are ignored.
    """
    if root.departure is None:
        raise ValueError("trace is not finished")
    spans = []
    services = []
    processing = []
    upstream = []
    budget = 0.0
    node: Span | None = root
    while node is not None:
        spans.append(node)
        services.append(node.service)
        children = node.children
        covered = 0.0
        dominant = None
        if len(children) == 1:
            # The common hop: one call, which is the path if it ended.
            if children[0].departure is not None:
                dominant = children[0]
                covered += dominant.departure - dominant.arrival
        elif children:
            finished = [child for child in children
                        if child.departure is not None]
            if finished:
                finished.sort(key=_arrival)
                dominant = finished[0]
                cursor = dominant.arrival
                cursor_end = cluster_end = dominant.departure
                longest = cursor_end - cursor
                for child in finished[1:]:
                    start, end = child.arrival, child.departure
                    # Interval union: a gap closes the covered run.
                    if start > cursor_end:
                        covered += cursor_end - cursor
                        cursor, cursor_end = start, end
                    elif end > cursor_end:
                        cursor_end = end
                    # Clusters: an arrival at or after the cluster's
                    # end opens the next one.
                    length = end - start
                    if start >= cluster_end:
                        cluster_end = end
                        dominant, longest = child, length
                    else:
                        if end > cluster_end:
                            cluster_end = end
                        if length > longest:
                            dominant, longest = child, length
                covered += cursor_end - cursor
        own = max(0.0, (node.departure - node.arrival) - covered)
        processing.append(own)
        upstream.append(budget)
        budget += own
        node = dominant
    return CriticalPath(tuple(spans), tuple(services), tuple(processing),
                        tuple(upstream), root.departure - root.arrival)


def critical_path_frequencies(
        roots: _t.Iterable[Span]) -> dict[tuple[str, ...], int]:
    """How often each distinct critical path occurred in ``roots``.

    Useful for observing the paper's point that call graphs are dynamic:
    the same request type can exercise different critical paths run to
    run (Fig. 5).
    """
    counts: dict[tuple[str, ...], int] = {}
    for root in roots:
        path = extract_critical_path(root).services
        counts[path] = counts.get(path, 0) + 1
    return counts
