"""Tests for critical service localization and deadline propagation."""

import pytest

from repro.core import CriticalServiceLocator, DeadlinePropagator
from repro.tracing import Span


def chain_trace(trace_id, timings):
    """Build a linear trace. timings: [(service, arrival, departure)]."""
    parent = None
    root = None
    for service, arrival, departure in timings:
        span = Span(trace_id, service, "default", arrival, parent=parent)
        span.started = arrival
        span.departure = departure
        if root is None:
            root = span
        parent = span
    return root


def make_traces(cart_durations):
    """front-end -> cart traces where cart's self-time varies and the
    end-to-end time varies with it (cart drives the variation)."""
    traces = []
    for index, cart_time in enumerate(cart_durations):
        fe_self = 2.0
        total = fe_self + cart_time
        traces.append(chain_trace(index, [
            ("front-end", 0.0, total),
            ("cart", 1.0, 1.0 + cart_time),
        ]))
    return traces


class TestLocator:
    def test_empty_window(self):
        locator = CriticalServiceLocator()
        report = locator.locate([], {"cart": 0.9})
        assert report.critical_service is None

    def test_correlated_service_wins(self):
        traces = make_traces([5.0, 10.0, 20.0, 40.0])
        locator = CriticalServiceLocator()
        report = locator.locate(traces, {"front-end": 0.2, "cart": 0.5})
        assert report.critical_service == "cart"
        assert report.correlations["cart"] > 0.99

    def test_utilization_candidates_preferred(self):
        # Both services correlate, but only cart is near capacity.
        traces = make_traces([5.0, 10.0, 20.0, 40.0])
        locator = CriticalServiceLocator(utilization_threshold=0.7)
        report = locator.locate(
            traces, {"front-end": 0.1, "cart": 0.95})
        assert report.critical_service == "cart"
        assert report.candidates == ("cart",)

    def test_excluded_service_never_nominated(self):
        traces = make_traces([5.0, 10.0, 20.0])
        locator = CriticalServiceLocator(exclude=("cart",))
        report = locator.locate(traces, {})
        assert report.critical_service != "cart"

    def test_dominant_path_frequencies(self):
        traces = make_traces([5.0, 10.0])
        other = chain_trace(99, [("front-end", 0.0, 30.0),
                                 ("catalogue", 1.0, 29.0)])
        locator = CriticalServiceLocator()
        report = locator.locate(traces + [other], {})
        assert report.dominant_path == ("front-end", "cart")
        assert report.path_frequencies[("front-end", "cart")] == 2
        assert report.path_frequencies[("front-end", "catalogue")] == 1

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            CriticalServiceLocator(utilization_threshold=0.0)
        with pytest.raises(ValueError):
            CriticalServiceLocator(utilization_threshold=1.5)


class TestDeadlinePropagation:
    def test_single_trace_subtracts_upstream(self):
        # front-end self time = 2 (10 total - 8 cart), SLA 20 ->
        # cart threshold 18.
        root = chain_trace(1, [("front-end", 0.0, 10.0),
                               ("cart", 1.0, 9.0)])
        deadline = DeadlinePropagator(sla=20.0).propagate([root], "cart")
        assert deadline.threshold == pytest.approx(18.0)
        assert deadline.upstream_budget == pytest.approx(2.0)
        assert deadline.samples == 1

    def test_service_not_on_path_returns_none(self):
        root = chain_trace(1, [("front-end", 0.0, 10.0),
                               ("cart", 1.0, 9.0)])
        deadline = DeadlinePropagator(sla=20.0).propagate(
            [root], "catalogue")
        assert deadline.samples == 0
        assert deadline.threshold == 20.0

    def test_root_service_keeps_full_sla(self):
        root = chain_trace(1, [("front-end", 0.0, 10.0),
                               ("cart", 1.0, 9.0)])
        deadline = DeadlinePropagator(sla=20.0).propagate(
            [root], "front-end")
        assert deadline.threshold == pytest.approx(20.0)
        assert deadline.samples == 1

    def test_window_mean(self):
        traces = [
            chain_trace(1, [("front-end", 0.0, 10.0), ("cart", 1.0, 9.0)]),
            chain_trace(2, [("front-end", 0.0, 12.0), ("cart", 2.0, 8.0)]),
        ]
        # Upstream self times: 2 and 6 -> mean 4 -> threshold 16.
        propagator = DeadlinePropagator(sla=20.0)
        deadline = propagator.propagate(traces, "cart")
        assert deadline.threshold == pytest.approx(16.0)
        assert deadline.upstream_budget == pytest.approx(4.0)
        assert deadline.samples == 2

    def test_no_applicable_traces_full_sla(self):
        propagator = DeadlinePropagator(sla=20.0)
        deadline = propagator.propagate([], "cart")
        assert deadline.threshold == 20.0
        assert deadline.samples == 0

    def test_floor_prevents_starvation(self):
        # Upstream eats nearly the whole SLA: threshold clamps at floor.
        root = chain_trace(1, [("front-end", 0.0, 100.0),
                               ("cart", 98.0, 99.0)])
        propagator = DeadlinePropagator(sla=20.0, floor_fraction=0.1)
        deadline = propagator.propagate([root], "cart")
        assert deadline.threshold == pytest.approx(2.0)

    def test_paper_example(self):
        """§3.2 worked example: SLA 150 ms, front-end processing 10 ms
        -> Cart threshold 140 ms."""
        root = chain_trace(1, [("front-end", 0.000, 0.100),
                               ("cart", 0.005, 0.095)])
        # front-end self time = 100 - 90 = 10 ms.
        propagator = DeadlinePropagator(sla=0.150)
        deadline = propagator.propagate([root], "cart")
        assert deadline.threshold == pytest.approx(0.140)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            DeadlinePropagator(sla=0.0)
        with pytest.raises(ValueError):
            DeadlinePropagator(sla=1.0, floor_fraction=1.0)
