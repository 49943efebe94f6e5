"""Tests for microservices, replicas, and request handling."""

import numpy as np
import pytest

from repro.app import (
    Application,
    Call,
    Compute,
    LeastConnections,
    Microservice,
    Operation,
    Parallel,
    RoundRobin,
)
from repro.sim import Constant, Environment, RandomStreams


def build_two_tier(env, streams, *, cart_threads=2, cart_demand=0.01,
                   db_demand=0.01, pool=None):
    """front-end -> cart -> cart-db with constant demands."""
    app = Application(env)
    front = Microservice(env, "front-end", streams.stream("fe"), cores=4.0)
    cart = Microservice(env, "cart", streams.stream("cart"), cores=2.0,
                        thread_pool_size=cart_threads)
    db = Microservice(env, "cart-db", streams.stream("db"), cores=4.0)
    app.add_service(front)
    app.add_service(cart)
    app.add_service(db)
    db.add_operation(Operation("default", [Compute(Constant(db_demand))]))
    cart_steps = [Compute(Constant(cart_demand))]
    if pool:
        cart.add_client_pool(pool, 2)
        cart_steps.append(Call("cart-db", via_pool=pool))
    else:
        cart_steps.append(Call("cart-db"))
    cart.add_operation(Operation("default", cart_steps))
    front.add_operation(Operation("default", [
        Compute(Constant(0.001)), Call("cart")]))
    app.set_entrypoint("cart", "front-end", "default")
    app.validate()
    return app


def test_single_request_latency_is_sum_of_demands():
    env = Environment()
    app = build_two_tier(env, RandomStreams(1))
    request, proc = app.submit("cart")
    env.run(until=proc)
    # 1ms front-end + 10ms cart + 10ms db = 21ms, uncontended.
    assert request.response_time == pytest.approx(0.021)


def test_trace_structure_matches_call_graph():
    env = Environment()
    app = build_two_tier(env, RandomStreams(1))
    request, proc = app.submit("cart")
    env.run(until=proc)
    root = request.root_span
    assert root.service == "front-end"
    assert [c.service for c in root.children] == ["cart"]
    assert [c.service for c in root.children[0].children] == ["cart-db"]
    assert len(app.warehouse.traces()) == 1


def test_thread_pool_gates_concurrency():
    env = Environment()
    app = build_two_tier(env, RandomStreams(1), cart_threads=1)
    # Two simultaneous requests: second waits for the cart thread.
    _r1, p1 = app.submit("cart")
    r2, p2 = app.submit("cart")
    env.run(until=p1)
    env.run(until=p2)
    # Request 2's cart span should show queueing delay.
    cart_span = r2.root_span.find("cart")
    assert cart_span.queue_wait > 0


def test_client_pool_gates_downstream_calls():
    env = Environment()
    app = build_two_tier(env, RandomStreams(1), cart_threads=10, pool="db")
    cart = app.service("cart")
    pool = cart.client_pool("db")
    procs = [app.submit("cart")[1] for _ in range(5)]
    saw_full = []

    def watcher(env):
        while any(p.is_alive for p in procs):
            saw_full.append(pool.in_use)
            yield env.timeout(0.001)

    env.process(watcher(env))
    env.run()
    assert max(saw_full) <= 2  # capped by pool capacity
    assert pool.total_granted == 5


def test_unknown_operation_raises():
    env = Environment()
    app = build_two_tier(env, RandomStreams(1))
    with pytest.raises(KeyError):
        list(app.service("cart").handle(None, "missing", None))


def test_unknown_request_type_raises():
    env = Environment()
    app = build_two_tier(env, RandomStreams(1))
    with pytest.raises(KeyError):
        app.submit("nope")


def test_duplicate_service_rejected():
    env = Environment()
    app = Application(env)
    streams = RandomStreams(1)
    app.add_service(Microservice(env, "a", streams.stream("a")))
    with pytest.raises(ValueError):
        app.add_service(Microservice(env, "a", streams.stream("a2")))


def test_validate_catches_unknown_target():
    env = Environment()
    app = Application(env)
    svc = Microservice(env, "a", RandomStreams(1).stream("a"))
    svc.add_operation(Operation("default", [Call("ghost")]))
    app.add_service(svc)
    with pytest.raises(ValueError):
        app.validate()


def test_validate_catches_missing_client_pool():
    env = Environment()
    app = Application(env)
    streams = RandomStreams(1)
    a = Microservice(env, "a", streams.stream("a"))
    b = Microservice(env, "b", streams.stream("b"))
    b.add_operation(Operation("default", [Compute(Constant(0.001))]))
    a.add_operation(Operation("default", [Call("b", via_pool="ghost")]))
    app.add_service(a)
    app.add_service(b)
    with pytest.raises(ValueError):
        app.validate()


def test_parallel_calls_overlap_in_time():
    env = Environment()
    app = Application(env)
    streams = RandomStreams(1)
    front = Microservice(env, "fe", streams.stream("fe"), cores=4.0)
    left = Microservice(env, "left", streams.stream("l"), cores=4.0)
    right = Microservice(env, "right", streams.stream("r"), cores=4.0)
    left.add_operation(Operation("default", [Compute(Constant(0.010))]))
    right.add_operation(Operation("default", [Compute(Constant(0.010))]))
    front.add_operation(Operation("default", [
        Parallel([Call("left"), Call("right")])]))
    for svc in (front, left, right):
        app.add_service(svc)
    app.set_entrypoint("go", "fe", "default")
    request, proc = app.submit("go")
    env.run(until=proc)
    # Parallel: ~10ms, not 20ms.
    assert request.response_time == pytest.approx(0.010, abs=1e-6)


def test_horizontal_scaling_adds_capacity():
    env = Environment()
    app = build_two_tier(env, RandomStreams(1), cart_threads=1)
    cart = app.service("cart")
    cart.scale_replicas(3)
    assert cart.replica_count == 3
    assert cart.server_pool_capacity() == 3
    procs = [app.submit("cart")[1] for _ in range(3)]
    for proc in procs:
        env.run(until=proc)
    # With 3 one-thread replicas and round-robin, none should queue.
    for replica in cart.replicas:
        assert replica.server_pool.total_wait_time == 0.0


def test_scale_in_drains_gracefully():
    env = Environment()
    app = build_two_tier(env, RandomStreams(1), cart_threads=1,
                         cart_demand=0.05)
    cart = app.service("cart")
    cart.scale_replicas(2)

    def scale_in(env):
        yield env.timeout(0.01)  # while requests are in flight
        cart.scale_replicas(1)

    procs = [app.submit("cart")[1] for _ in range(2)]
    env.process(scale_in(env))
    for proc in procs:
        env.run(until=proc)
    assert cart.replica_count == 1
    assert app.latency["cart"].total == 2  # both finished despite scale-in


def test_vertical_scaling_changes_all_replicas():
    env = Environment()
    app = build_two_tier(env, RandomStreams(1))
    cart = app.service("cart")
    cart.scale_replicas(2)
    cart.set_cores(4.0)
    assert all(r.cpu.cores == 4.0 for r in cart.replicas)
    assert cart.cores_per_replica == 4.0


def test_set_thread_pool_size_applies_to_replicas():
    env = Environment()
    app = build_two_tier(env, RandomStreams(1), cart_threads=2)
    cart = app.service("cart")
    cart.scale_replicas(2)
    cart.set_thread_pool_size(7)
    assert all(r.server_pool.capacity == 7 for r in cart.replicas)
    assert cart.server_pool_capacity() == 14


def test_set_thread_pool_on_async_service_raises():
    env = Environment()
    svc = Microservice(env, "go-svc", RandomStreams(1).stream("x"))
    with pytest.raises(ValueError):
        svc.set_thread_pool_size(5)
    assert svc.server_pool_capacity() is None


def test_demand_scale_slows_requests():
    env = Environment()
    app = build_two_tier(env, RandomStreams(1))
    app.service("cart").demand_scale = 5.0
    request, proc = app.submit("cart")
    env.run(until=proc)
    # 1ms + 50ms + 10ms.
    assert request.response_time == pytest.approx(0.061)


def test_service_metrics_goodput_threshold():
    env = Environment()
    app = build_two_tier(env, RandomStreams(1))
    for _ in range(4):
        _, proc = app.submit("cart")
        env.run(until=proc)
    metrics = app.service("cart").metrics
    assert metrics.total == 4
    now = env.now + 1e-9  # windows are half-open: include the last one
    times, residence, processing = metrics.window(0.0, now)
    assert times.size == 4
    # Cart span is ~20ms: none meets a 5ms threshold, all meet 1s.
    assert np.count_nonzero(residence <= 0.005) == 0
    assert np.count_nonzero(residence <= 1.0) == 4
    assert np.all(processing <= residence)


def test_cpu_totals_accumulate_across_replicas():
    env = Environment()
    app = build_two_tier(env, RandomStreams(1))
    cart = app.service("cart")
    cart.scale_replicas(2)
    for _ in range(4):
        _, proc = app.submit("cart")
        env.run(until=proc)
    busy, capacity = cart.cpu_totals()
    assert busy > 0
    assert capacity >= busy


def test_round_robin_spreads_requests():
    env = Environment()
    app = build_two_tier(env, RandomStreams(1), cart_threads=5)
    cart = app.service("cart")
    cart.scale_replicas(2)
    cart.load_balancer = RoundRobin()
    for _ in range(6):
        _, proc = app.submit("cart")
        env.run(until=proc)
    grants = [r.server_pool.total_granted for r in cart.replicas]
    assert grants == [3, 3]


def test_least_connections_prefers_idle_replica():
    env = Environment()
    app = build_two_tier(env, RandomStreams(1), cart_threads=5,
                         cart_demand=0.05)
    cart = app.service("cart")
    cart.scale_replicas(2)
    cart.load_balancer = LeastConnections()
    # Submit two requests back to back with no delay: the second must go
    # to the idle replica.
    app.submit("cart")
    app.submit("cart")
    env.run()
    grants = [r.server_pool.total_granted for r in cart.replicas]
    assert grants == [1, 1]


def test_resize_client_pool():
    env = Environment()
    app = build_two_tier(env, RandomStreams(1), pool="db")
    cart = app.service("cart")
    cart.resize_client_pool("db", 9)
    assert cart.client_pool("db").capacity == 9


def test_in_flight_accounting():
    env = Environment()
    app = build_two_tier(env, RandomStreams(1))
    app.submit("cart")
    assert app.in_flight == 1
    env.run()
    assert app.in_flight == 0
    assert app.total_submitted == 1
