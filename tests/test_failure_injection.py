"""Failure injection: interrupts and crashes must not leak resources.

A request process that dies mid-flight (timeout enforcement, operator
kill, injected fault) must release every pool token it held, keep the
service accounting consistent, and leave the rest of the system
serving traffic.
"""

import pytest

from repro.app import Application, Call, Compute, Microservice, Operation
from repro.resources import SoftResourcePool
from repro.sim import (
    Constant,
    Environment,
    Interrupt,
    RandomStreams,
)


def build_app(env, streams, *, threads=2, pool=None, demand=0.05):
    app = Application(env)
    svc = Microservice(env, "svc", streams.stream("svc"), cores=2.0,
                       thread_pool_size=threads)
    backend = Microservice(env, "backend", streams.stream("be"),
                           cores=2.0)
    backend.add_operation(Operation("default", [
        Compute(Constant(demand))]))
    steps = [Compute(Constant(0.001))]
    if pool:
        svc.add_client_pool(pool, 2)
        steps.append(Call("backend", via_pool=pool))
    else:
        steps.append(Call("backend"))
    svc.add_operation(Operation("default", steps))
    app.add_service(svc)
    app.add_service(backend)
    app.set_entrypoint("go", "svc", "default")
    return app


class TestInterruptedRequests:
    def test_interrupt_releases_server_thread(self):
        env = Environment()
        streams = RandomStreams(0)
        app = build_app(env, streams, threads=1)
        svc = app.service("svc")

        _request, process = app.submit("go")

        def killer(env):
            yield env.timeout(0.01)  # mid-backend-call
            process.interrupt(cause="injected fault")

        env.process(killer(env))
        with pytest.raises(Interrupt):
            env.run(until=process)
        env.run()
        # The thread token must have been released.
        assert svc.replicas[0].server_pool.in_use == 0
        assert svc.replicas[0].active_requests == 0

        # And a follow-up request must be served normally.
        request2, process2 = app.submit("go")
        env.run(until=process2)
        assert request2.finished

    def test_interrupt_releases_client_pool(self):
        env = Environment()
        streams = RandomStreams(0)
        app = build_app(env, streams, threads=4, pool="db")
        svc = app.service("svc")
        pool = svc.client_pool("db")

        _request, process = app.submit("go")

        def killer(env):
            yield env.timeout(0.01)
            process.interrupt()

        env.process(killer(env))
        with pytest.raises(Interrupt):
            env.run(until=process)
        env.run()
        assert pool.in_use == 0

    def test_interrupt_records_span_departure(self):
        env = Environment()
        streams = RandomStreams(0)
        app = build_app(env, streams)
        svc = app.service("svc")
        before = svc.metrics.total

        _request, process = app.submit("go")

        def killer(env):
            yield env.timeout(0.01)
            process.interrupt()

        env.process(killer(env))
        with pytest.raises(Interrupt):
            env.run(until=process)
        env.run()
        # The aborted request still closed its span at svc (the finally
        # block), so monitoring keeps a consistent view.
        assert svc.metrics.total == before + 1

    def test_other_requests_unaffected_by_interrupt(self):
        env = Environment()
        streams = RandomStreams(0)
        app = build_app(env, streams, threads=4)
        victim_request, victim = app.submit("go")
        survivors = [app.submit("go") for _ in range(3)]

        def killer(env):
            yield env.timeout(0.005)
            victim.interrupt()

        env.process(killer(env))
        with pytest.raises(Interrupt):
            env.run(until=victim)
        env.run()
        assert not victim_request.finished
        assert all(r.finished for r, _p in survivors)


class TestTimeoutEnforcement:
    def test_client_side_timeout_pattern(self):
        """The any_of pattern a client uses to bound a call."""
        env = Environment()
        streams = RandomStreams(0)
        app = build_app(env, streams, demand=0.5)
        outcome = {}

        def client(env):
            _request, process = app.submit("go")
            deadline = env.timeout(0.1, value="timeout")
            first = yield env.any_of([process, deadline])
            outcome["timed_out"] = "timeout" in list(first.values())
            if outcome["timed_out"]:
                process.interrupt(cause="client timeout")

        env.process(client(env))
        env.run()
        assert outcome["timed_out"]
        assert app.service("svc").replicas[0].server_pool.in_use == 0


class TestPoolWaiterCancellation:
    def test_cancelled_waiter_does_not_consume_token(self):
        env = Environment()
        pool = SoftResourcePool(env, capacity=1)
        pool.acquire()
        waiting = pool.acquire()
        pool.cancel(waiting)
        pool.release()
        assert pool.available == 1
        assert not waiting.triggered
