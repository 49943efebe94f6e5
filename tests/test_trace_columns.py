"""The columnar critical-path pipeline equals the per-trace loops it
replaced, bit for bit.

The reference functions below are the loop implementations that
windowed localization and deadline propagation used before the
warehouse stored each trace's critical path as columns: a per-trace
tree walk (:func:`reference_path`), :meth:`Span.self_time` per hop, a
``Counter`` path census and per-service sample lists. The tests build
random call trees (:func:`repro.validation.strategies.call_trees`) and
compare every output field exactly, floats included.
"""

import typing as _t
from collections import Counter, defaultdict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.correlation import pearson
from repro.core.deadline import DeadlinePropagator, clamp_threshold
from repro.core.localization import CriticalServiceLocator
from repro.tracing import (
    Span,
    TraceWarehouse,
    TraceWindow,
    extract_critical_path,
)
from repro.validation.strategies import call_trees

SERVICES = ("fe", "cart", "db", "cache")
SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


# ----------------------------------------------------------------------
# References: the per-trace loops
# ----------------------------------------------------------------------
def reference_dominant_child(span: Span) -> Span | None:
    finished = [c for c in span.children if c.finished]
    if not finished:
        return None
    finished.sort(key=lambda c: c.arrival)
    clusters: list[list[Span]] = []
    cluster_end = -float("inf")
    for child in finished:
        if not clusters or child.arrival >= cluster_end:
            clusters.append([child])
            cluster_end = _t.cast(float, child.departure)
        else:
            clusters[-1].append(child)
            cluster_end = max(cluster_end, _t.cast(float, child.departure))
    return max(clusters[-1], key=lambda c: c.duration)


def reference_path(root: Span) -> list[Span]:
    chain = [root]
    node = reference_dominant_child(root)
    while node is not None:
        chain.append(node)
        node = reference_dominant_child(node)
    return chain


def reference_locate(traces, utilizations, threshold=0.7, exclude=()):
    path_counter: Counter = Counter()
    processing: dict = defaultdict(list)
    path_durations: dict = defaultdict(list)
    for root in traces:
        spans = reference_path(root)
        path_counter[tuple(span.service for span in spans)] += 1
        duration = root.duration
        for span in spans:
            processing[span.service].append(span.self_time())
            path_durations[span.service].append(duration)
    correlations = {
        service: pearson(processing[service], path_durations[service])
        for service in processing if service not in exclude}
    candidates = tuple(
        service for service, value in utilizations.items()
        if value >= threshold and service not in exclude)
    return {"dominant_path": path_counter.most_common(1)[0][0],
            "correlations": correlations,
            "candidates": candidates,
            "path_frequencies": dict(path_counter)}


def reference_propagate_for_trace(root, service, sla):
    spans = reference_path(root)
    upstream = []
    for span in spans:
        if span.service == service:
            return sla - sum(s.self_time() for s in upstream)
        upstream.append(span)
    return None


def reference_propagate(traces, service, sla, floor_fraction=0.1):
    thresholds = [value for value in (
        reference_propagate_for_trace(root, service, sla)
        for root in traces) if value is not None]
    if not thresholds:
        return (sla, 0.0, sla, 0)
    mean_threshold = float(np.mean(thresholds))
    return (sla, sla - mean_threshold,
            clamp_threshold(mean_threshold, sla, floor_fraction),
            len(thresholds))


def bits(mapping: dict) -> list:
    """A dict as ordered pairs, floats as hex: equal only bit for bit."""
    return [(key, value.hex() if isinstance(value, float) else value)
            for key, value in mapping.items()]


def windows(traces):
    """The same roots as a plain list and as a warehouse window (which
    orders them by departure, so the plain list is sorted too)."""
    ordered = sorted(traces, key=lambda root: root.departure)
    warehouse = TraceWarehouse()
    for root in traces:
        warehouse.record(root)
    return [list(traces), warehouse.traces()], ordered


# ----------------------------------------------------------------------
# Extraction
# ----------------------------------------------------------------------
@SETTINGS
@given(root=call_trees())
def test_extraction_matches_the_tree_walk(root):
    path = extract_critical_path(root)
    spans = reference_path(root)
    assert path.spans == tuple(spans)
    assert path.services == tuple(span.service for span in spans)
    assert [value.hex() for value in path.processing] == \
        [span.self_time().hex() for span in spans]
    for hop in range(len(spans)):
        budget = sum(span.self_time() for span in spans[:hop])
        assert path.upstream[hop].hex() == float(budget).hex()
    assert path.duration.hex() == root.duration.hex()


def test_touching_children_merge_into_one_covered_interval():
    # [1, 2] and [2, 19] ms touch: the union covers 18 ms in one piece,
    # and (2 - 1) + (19 - 2) ms would differ from it in the last bit.
    root = Span(1, "fe", "op", 0.0)
    root.departure = 0.030
    for arrival, departure in ((0.001, 0.002), (0.002, 0.019)):
        child = Span(1, "db", "op", arrival, parent=root)
        child.departure = departure
    assert (0.002 - 0.001) + (0.019 - 0.002) != 0.019 - 0.001
    path = extract_critical_path(root)
    assert path.processing[0].hex() == root.self_time().hex()
    # Touching, so the second child opens the last cluster.
    assert path.spans[1] is root.children[1]


# ----------------------------------------------------------------------
# Windowed localization and propagation
# ----------------------------------------------------------------------
@SETTINGS
@given(traces=st.lists(call_trees(), min_size=1, max_size=12),
       loads=st.lists(st.floats(0.0, 1.0), min_size=len(SERVICES),
                      max_size=len(SERVICES)),
       exclude=st.sets(st.sampled_from(SERVICES), max_size=2))
def test_locate_matches_the_loop(traces, loads, exclude):
    utilizations = dict(zip(SERVICES, loads))
    locator = CriticalServiceLocator(exclude=tuple(exclude))
    inputs, ordered = windows(traces)
    for window, roots in zip(inputs, (traces, ordered)):
        report = locator.locate(window, utilizations)
        expected = reference_locate(roots, utilizations,
                                    exclude=frozenset(exclude))
        assert report.dominant_path == expected["dominant_path"]
        assert bits(report.correlations) == bits(expected["correlations"])
        assert report.candidates == expected["candidates"]
        assert list(report.path_frequencies.items()) == \
            list(expected["path_frequencies"].items())
        assert report.critical_service == locator._pick(
            expected["correlations"], expected["candidates"],
            expected["dominant_path"])


@SETTINGS
@given(traces=st.lists(call_trees(), min_size=0, max_size=12),
       sla=st.sampled_from([0.4, 0.05, 2.0, 150.0]))
def test_propagate_matches_the_loop(traces, sla):
    propagator = DeadlinePropagator(sla)
    inputs, ordered = windows(traces)
    for window, roots in zip(inputs, (traces, ordered)):
        for service in SERVICES + ("off-every-path",):
            deadline = propagator.propagate(window, service)
            expected = reference_propagate(roots, service, sla)
            observed = (deadline.sla, deadline.upstream_budget,
                        deadline.threshold, deadline.samples)
            assert [float(v).hex() for v in observed[:3]] == \
                [float(v).hex() for v in expected[:3]], service
            assert observed[3] == expected[3]


def test_a_service_twice_on_one_path_takes_its_first_hop():
    root = Span(1, "fe", "op", 0.0)
    root.departure = 10.0
    cart = Span(1, "cart", "op", 1.0, parent=root)
    cart.departure = 9.0
    again = Span(1, "fe", "op", 2.0, parent=cart)
    again.departure = 7.0
    assert extract_critical_path(root).services == ("fe", "cart", "fe")
    deadline = DeadlinePropagator(20.0).propagate([root], "fe")
    assert (deadline.threshold, deadline.samples) == (20.0, 1)
    report = CriticalServiceLocator().locate([root], {})
    assert report.path_frequencies == {("fe", "cart", "fe"): 1}


# ----------------------------------------------------------------------
# Warehouse bookkeeping
# ----------------------------------------------------------------------
def recount(warehouse: TraceWarehouse):
    """The warehouse's full window, and the same roots re-extracted."""
    stored = warehouse.traces(-np.inf, np.inf)
    return stored, TraceWindow.of(list(stored))


def column_view(window: TraceWindow) -> dict:
    return {
        "roots": [id(root) for root in window],
        "duration": window.duration.tolist(),
        "path": [window.paths[pid] for pid in window.path.tolist()],
        "hop_start": window.hop_start.tolist(),
        "hop_service": [window.services[sid]
                        for sid in window.hop_service.tolist()],
        "hop_processing": window.hop_processing.tolist(),
        "hop_upstream": window.hop_upstream.tolist(),
    }


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(traces=st.lists(call_trees(max_depth=2), min_size=1, max_size=40),
       capacity=st.integers(1, 12),
       read_every=st.integers(1, 5),
       cut=st.integers(0, 260))
def test_columns_equal_a_recount_through_eviction_and_pruning(
        traces, capacity, read_every, cut):
    # Roots arrive in drawn order, so some are recorded out of
    # departure order, and several may be recorded between reads; past
    # capacity the earliest-departed one goes, the new one included.
    warehouse = TraceWarehouse(max_traces=capacity)
    expected: list[Span] = []
    for count, root in enumerate(traces, 1):
        expected.append(root)
        expected.sort(key=lambda span: span.departure)
        if len(expected) > capacity:
            expected.pop(0)
        warehouse.record(root)
        assert len(warehouse) == len(expected)
        if count % read_every and count < len(traces):
            continue
        stored, fresh = recount(warehouse)
        assert [id(r) for r in stored] == [id(r) for r in expected]
        assert column_view(stored) == column_view(fresh)
    dropped = warehouse.prune(before=cut * 0.001)
    kept = [root for root in expected if root.departure >= cut * 0.001]
    assert dropped == len(expected) - len(kept)
    stored, fresh = recount(warehouse)
    assert [id(r) for r in stored] == [id(r) for r in kept]
    assert column_view(stored) == column_view(fresh)


def test_growth_keeps_earlier_windows_intact():
    # A window holds views into the columns; appends past it, growth
    # and re-sorting must not rewrite what it shows.
    warehouse = TraceWarehouse()
    roots = []
    for index in range(3000):
        root = Span(index, "fe", "op", float(index))
        root.departure = float(index) + 0.5
        child = Span(index, "db", "op", float(index) + 0.1, parent=root)
        child.departure = float(index) + 0.1 + (index % 7) * 0.01
        roots.append(root)
    for root in roots[:1000]:
        warehouse.record(root)
    early = warehouse.traces(100.0, 900.0)
    before = column_view(early)
    # Later than every stored trace, out of order among themselves.
    for pair in range(1000, 2000, 2):
        warehouse.record(roots[pair + 1])
        warehouse.record(roots[pair])
    assert column_view(early) == before
    middle = warehouse.traces(1500.0, 1900.0)
    in_middle = column_view(middle)
    for root in roots[2000:][::-1]:  # every one out of order
        warehouse.record(root)
    assert column_view(early) == before
    assert column_view(middle) == in_middle
    stored, fresh = recount(warehouse)
    assert [root.departure for root in stored] == [
        root.departure for root in roots]
    assert column_view(stored) == column_view(fresh)
    assert len(warehouse.traces(100.0, 900.0)) == 800


def test_spans_for_is_every_span_sorted_by_departure():
    warehouse = TraceWarehouse()
    a = Span(1, "fe", "op", 0.0)
    a.departure = 10.0
    late = Span(1, "cart", "op", 1.0, parent=a)
    late.departure = 9.0
    b = Span(2, "fe", "op", 0.0)
    b.departure = 11.0
    early = Span(2, "cart", "op", 1.0, parent=b)
    early.departure = 2.0
    tie = Span(2, "cart", "op", 3.0, parent=b)
    tie.departure = 9.0
    warehouse.record(a)
    warehouse.record(b)
    assert warehouse.spans_for("cart") == [early, late, tie]
    assert warehouse.spans_for("cart", 2.5, 9.0) == []
    assert warehouse.services() == ["cart", "fe"]


def test_window_is_a_read_only_sequence():
    warehouse = TraceWarehouse()
    for t in (1.0, 2.0, 3.0):
        root = Span(int(t), "fe", "op", t - 0.5)
        root.departure = t
        warehouse.record(root)
    window = warehouse.traces(1.5)
    assert len(window) == 2 and window
    assert [root.departure for root in window] == [2.0, 3.0]
    assert window[-1].departure == 3.0
    assert [root.departure for root in window[:1]] == [2.0]
    assert not warehouse.traces(5.0, 4.0)
    with pytest.raises(TypeError):
        window[0] = window[1]  # type: ignore[index]
