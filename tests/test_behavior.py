"""Tests for operation behaviors and random-tree tracing properties."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.app.behavior import (
    Call,
    Choice,
    ChoiceWindow,
    Compute,
    Hedge,
    Operation,
    Parallel,
    Quorum,
)
from repro.core.deadline import DeadlinePropagator
from repro.sim import Constant
from repro.tracing import Span, extract_critical_path


class TestBehaviorValidation:
    def test_compute_requires_distribution(self):
        with pytest.raises(TypeError):
            Compute(demand=0.5)  # raw float is not a Distribution

    def test_parallel_requires_calls(self):
        with pytest.raises(ValueError):
            Parallel([])
        with pytest.raises(TypeError):
            Parallel([Compute(Constant(0.1))])

    def test_operation_rejects_non_steps(self):
        with pytest.raises(TypeError):
            Operation("op", ["not a step"])

    def test_downstream_calls_flattens_parallel(self):
        operation = Operation("op", [
            Compute(Constant(0.1)),
            Call("a"),
            Parallel([Call("b"), Call("c", via_pool="p")]),
        ])
        calls = operation.downstream_calls()
        assert [c.service for c in calls] == ["a", "b", "c"]
        assert calls[2].via_pool == "p"

    def test_compute_steps(self):
        operation = Operation("op", [
            Compute(Constant(0.1)), Call("a"), Compute(Constant(0.2))])
        assert len(operation.compute_steps()) == 2

    def test_call_defaults(self):
        call = Call("svc")
        assert call.operation == "default"
        assert call.via_pool is None


class TestTailAtScaleSteps:
    def test_quorum_validates_k(self):
        calls = [Call("a"), Call("b"), Call("c")]
        assert Quorum(calls, k=2).k == 2
        with pytest.raises(ValueError):
            Quorum(calls, k=0)
        with pytest.raises(ValueError):
            Quorum(calls, k=4)
        with pytest.raises(ValueError):
            Quorum([], k=1)
        with pytest.raises(TypeError):
            Quorum([Compute(Constant(0.1))], k=1)

    def test_hedge_validates(self):
        assert Hedge(Call("a"), after=0.01).after == 0.01
        with pytest.raises(ValueError):
            Hedge(Call("a"), after=0.0)
        with pytest.raises(TypeError):
            Hedge(Compute(Constant(0.1)), after=0.01)

    def test_choice_validates_weights(self):
        branches = [(Call("a"),), (Call("b"),)]
        choice = Choice(branches, weights=(0.9, 0.1))
        assert choice.weights == (0.9, 0.1)
        with pytest.raises(ValueError):
            Choice(branches, weights=(0.9,))  # arity mismatch
        with pytest.raises(ValueError):
            Choice(branches, weights=(-1.0, 2.0))
        with pytest.raises(ValueError):
            Choice(branches, weights=(0.0, 0.0))
        with pytest.raises(ValueError):
            Choice([], weights=())

    def test_choice_window_overrides_weights_in_interval(self):
        window = ChoiceWindow(10.0, 5.0, (0.1, 0.9))
        choice = Choice([(Call("a"),), (Call("b"),)],
                        weights=(0.9, 0.1), window=window)
        assert choice.weights_at(9.99) == (0.9, 0.1)
        assert choice.weights_at(10.0) == (0.1, 0.9)
        assert choice.weights_at(14.99) == (0.1, 0.9)
        assert choice.weights_at(15.0) == (0.9, 0.1)

    def test_choice_window_arity_checked(self):
        with pytest.raises(ValueError):
            Choice([(Call("a"),), (Call("b"),)], weights=(0.5, 0.5),
                   window=ChoiceWindow(0.0, 1.0, (1.0,)))

    def test_empty_choice_branch_allowed(self):
        choice = Choice([(), (Call("db"),)], weights=(0.9, 0.1))
        assert choice.branches[0] == ()

    def test_downstream_calls_flattens_composites(self):
        operation = Operation("op", [
            Quorum([Call("r0"), Call("r1")], k=1),
            Hedge(Call("backend"), after=0.01),
            Choice([(Call("cache"),),
                    (Call("cache"), Call("db"))],
                   weights=(0.5, 0.5)),
        ])
        services = [c.service for c in operation.downstream_calls()]
        assert services == ["r0", "r1", "backend", "cache", "cache",
                            "db"]

    def test_compute_steps_reach_choice_branches(self):
        operation = Operation("op", [
            Choice([(Compute(Constant(0.1)),), ()],
                   weights=(0.5, 0.5)),
        ])
        assert len(operation.compute_steps()) == 1


# ----------------------------------------------------------------------
# Random span trees for critical-path property testing.
# ----------------------------------------------------------------------

@st.composite
def span_trees(draw, max_depth=4, max_children=3):
    """A random well-nested finished span tree."""
    counter = [0]

    def build(parent, arrival, budget, depth):
        counter[0] += 1
        departure = arrival + budget
        span = Span(1, f"svc{counter[0]}", "op", arrival, parent=parent)
        span.started = arrival
        span.departure = departure
        if depth <= 0 or budget < 0.02:
            return span
        n_children = draw(st.integers(0, max_children))
        cursor = arrival + draw(st.floats(0.0, budget * 0.2))
        for _ in range(n_children):
            remaining = departure - cursor
            if remaining < 0.02:
                break
            child_budget = draw(st.floats(0.01, max(0.011,
                                                    remaining * 0.6)))
            child_budget = min(child_budget, remaining * 0.9)
            build(span, cursor, child_budget, depth - 1)
            cursor += child_budget * draw(st.floats(0.3, 1.0))
        return span

    total = draw(st.floats(1.0, 10.0))
    return build(None, 0.0, total, max_depth)


class TestCriticalPathProperties:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(root=span_trees())
    def test_path_is_root_to_descendant_chain(self, root):
        path = extract_critical_path(root)
        assert path.spans[0] is root
        for parent, child in zip(path.spans, path.spans[1:]):
            assert child in parent.children

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(root=span_trees())
    def test_path_duration_is_root_duration(self, root):
        path = extract_critical_path(root)
        assert path.duration == pytest.approx(root.duration)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(root=span_trees())
    def test_self_times_non_negative_and_bounded(self, root):
        for span in root.walk():
            self_time = span.self_time()
            assert 0.0 <= self_time <= span.duration + 1e-9

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(root=span_trees())
    def test_upstream_partition(self, root):
        # The leaf's upstream budget is every hop above it on the path.
        path = extract_critical_path(root)
        last = path.spans[-1]
        deadline = DeadlinePropagator(sla=100.0).propagate(
            [root], last.service)
        assert deadline.samples == 1
        assert deadline.upstream_budget == pytest.approx(
            sum(span.self_time() for span in path.spans[:-1]))
