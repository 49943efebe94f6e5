"""Tests for spans, the trace warehouse, and critical path extraction."""

import pytest

from repro.tracing import (
    Span,
    TraceWarehouse,
    critical_path_frequencies,
    extract_critical_path,
)


def make_span(service, arrival, departure, parent=None, trace_id=1,
              started=None):
    span = Span(trace_id, service, "default", arrival, parent=parent)
    span.started = arrival if started is None else started
    span.departure = departure
    return span


class TestSpan:
    def test_duration_and_queue_wait(self):
        span = make_span("cart", 1.0, 3.0, started=1.5)
        assert span.duration == pytest.approx(2.0)
        assert span.queue_wait == pytest.approx(0.5)

    def test_duration_unfinished_raises(self):
        span = Span(1, "cart", "default", 0.0)
        with pytest.raises(ValueError):
            _ = span.duration

    def test_parent_child_links(self):
        root = make_span("front-end", 0.0, 10.0)
        child = make_span("cart", 1.0, 5.0, parent=root)
        assert child.parent is root
        assert root.children == [child]
        assert child.depth() == 1
        assert root.depth() == 0

    def test_self_time_sequential_children(self):
        root = make_span("front-end", 0.0, 10.0)
        make_span("cart", 1.0, 4.0, parent=root)
        make_span("catalogue", 5.0, 8.0, parent=root)
        # 10 total - 3 - 3 downstream = 4 own.
        assert root.self_time() == pytest.approx(4.0)

    def test_self_time_overlapping_children_not_double_counted(self):
        root = make_span("front-end", 0.0, 10.0)
        make_span("cart", 1.0, 6.0, parent=root)
        make_span("catalogue", 2.0, 8.0, parent=root)
        # Children cover [1, 8] = 7 -> self time 3.
        assert root.self_time() == pytest.approx(3.0)

    def test_self_time_no_children(self):
        span = make_span("cart-db", 0.0, 2.5)
        assert span.self_time() == pytest.approx(2.5)

    def test_walk_preorder(self):
        root = make_span("a", 0.0, 10.0)
        b = make_span("b", 1.0, 4.0, parent=root)
        make_span("c", 1.5, 3.0, parent=b)
        make_span("d", 5.0, 8.0, parent=root)
        assert [s.service for s in root.walk()] == ["a", "b", "c", "d"]

    def test_find(self):
        root = make_span("a", 0.0, 10.0)
        b = make_span("b", 1.0, 4.0, parent=root)
        assert root.find("b") is b
        assert root.find("zz") is None


class TestCriticalPath:
    def test_linear_chain(self):
        root = make_span("front-end", 0.0, 10.0)
        cart = make_span("cart", 1.0, 9.0, parent=root)
        make_span("cart-db", 2.0, 7.0, parent=cart)
        path = extract_critical_path(root)
        assert path.services == ("front-end", "cart", "cart-db")
        assert path.duration == pytest.approx(10.0)

    def test_parallel_fanout_picks_longest(self):
        # Fig. 5: front-end calls Cart and Catalogue concurrently; the
        # slower branch is the critical path.
        root = make_span("front-end", 0.0, 10.0)
        make_span("cart", 1.0, 4.0, parent=root)
        catalogue = make_span("catalogue", 1.0, 9.0, parent=root)
        make_span("catalogue-db", 2.0, 8.0, parent=catalogue)
        path = extract_critical_path(root)
        assert path.services == ("front-end", "catalogue", "catalogue-db")

    def test_sequential_children_follow_last(self):
        # With sequential calls, the last call gates the response; within
        # its overlap cluster it is the longest.
        root = make_span("orders", 0.0, 20.0)
        make_span("user", 1.0, 5.0, parent=root)
        make_span("payment", 6.0, 8.0, parent=root)
        make_span("shipping", 9.0, 19.0, parent=root)
        path = extract_critical_path(root)
        assert path.services == ("orders", "shipping")

    def test_unfinished_trace_rejected(self):
        root = Span(1, "front-end", "default", 0.0)
        with pytest.raises(ValueError):
            extract_critical_path(root)

    def test_upstream_of(self):
        # Self times: front-end 2, cart 3, cart-db 5; each hop's
        # upstream budget sums the hops above it.
        root = make_span("front-end", 0.0, 10.0)
        cart = make_span("cart", 1.0, 9.0, parent=root)
        make_span("cart-db", 2.0, 7.0, parent=cart)
        path = extract_critical_path(root)
        assert path.processing == pytest.approx((2.0, 3.0, 5.0))
        assert path.upstream == pytest.approx((0.0, 2.0, 5.0))
        assert path.upstream[0] == 0.0

    def test_contains(self):
        root = make_span("front-end", 0.0, 10.0)
        make_span("cart", 1.0, 9.0, parent=root)
        path = extract_critical_path(root)
        assert "cart" in path.services
        assert "catalogue" not in path.services

    def test_self_times_exclude_downstream(self):
        root = make_span("front-end", 0.0, 10.0)
        make_span("cart", 1.0, 9.0, parent=root)
        path = extract_critical_path(root)
        assert path.self_times()["front-end"] == pytest.approx(2.0)
        assert path.self_times()["cart"] == pytest.approx(8.0)

    def test_frequencies_count_distinct_paths(self):
        roots = []
        for i in range(3):
            root = make_span("fe", 0.0, 10.0, trace_id=i)
            make_span("cart", 1.0, 9.0, parent=root, trace_id=i)
            roots.append(root)
        other = make_span("fe", 0.0, 10.0, trace_id=9)
        make_span("catalogue", 1.0, 9.0, parent=other, trace_id=9)
        roots.append(other)
        freq = critical_path_frequencies(roots)
        assert freq[("fe", "cart")] == 3
        assert freq[("fe", "catalogue")] == 1


class TestWarehouse:
    def test_record_and_query_traces(self):
        warehouse = TraceWarehouse()
        for t in [1.0, 2.0, 3.0]:
            warehouse.record(make_span("fe", t - 0.5, t))
        assert len(warehouse) == 3
        assert len(warehouse.traces(since=1.5, until=2.5)) == 1

    def test_unfinished_trace_rejected(self):
        warehouse = TraceWarehouse()
        with pytest.raises(ValueError):
            warehouse.record(Span(1, "fe", "default", 0.0))

    def test_spans_for_window(self):
        warehouse = TraceWarehouse()
        root = make_span("fe", 0.0, 5.0)
        make_span("cart", 1.0, 3.0, parent=root)
        warehouse.record(root)
        assert len(warehouse.spans_for("cart", 0.0, 10.0)) == 1
        assert len(warehouse.spans_for("cart", 3.5, 10.0)) == 0
        assert warehouse.spans_for("unknown") == []

    def test_spans_sorted_by_departure(self):
        warehouse = TraceWarehouse()
        # Trace roots recorded in completion order, but child spans may
        # depart before earlier-recorded spans; index must stay sorted.
        a = make_span("fe", 0.0, 10.0, trace_id=1)
        make_span("cart", 1.0, 9.0, parent=a, trace_id=1)
        b = make_span("fe", 0.0, 11.0, trace_id=2)
        make_span("cart", 1.0, 2.0, parent=b, trace_id=2)
        warehouse.record(a)
        warehouse.record(b)
        spans = warehouse.spans_for("cart")
        departures = [s.departure for s in spans]
        assert departures == sorted(departures)

    def test_services_listing(self):
        warehouse = TraceWarehouse()
        root = make_span("fe", 0.0, 5.0)
        make_span("cart", 1.0, 3.0, parent=root)
        warehouse.record(root)
        assert warehouse.services() == ["cart", "fe"]

    def test_prune_drops_old_data(self):
        warehouse = TraceWarehouse()
        for t in [1.0, 2.0, 3.0, 4.0]:
            warehouse.record(make_span("fe", t - 0.5, t))
        dropped = warehouse.prune(before=2.5)
        assert dropped == 2
        assert len(warehouse) == 2
        assert len(warehouse.spans_for("fe")) == 2

    def test_ring_buffer_eviction(self):
        warehouse = TraceWarehouse(max_traces=2)
        for t in [1.0, 2.0, 3.0]:
            warehouse.record(make_span("fe", t - 0.5, t))
        assert len(warehouse) == 2
        assert warehouse.total_recorded == 3
