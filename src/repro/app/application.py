"""The application: a graph of services plus end-to-end accounting.

An :class:`Application` registers services, routes invocations between
them, and closes the loop on each user request: it starts the root span
at the entrypoint service, records the finished trace into the
:class:`~repro.tracing.warehouse.TraceWarehouse`, and logs the
end-to-end response time per request type.
"""

from __future__ import annotations

import typing as _t

import networkx as nx

from repro.app.request import Request
from repro.app.service import Microservice
from repro.faults.resilience import CallError
from repro.metrics.sampler import TimeSeries
from repro.sim.engine import Environment
from repro.sim.errors import Interrupt
from repro.sim.events import Event
from repro.sim.process import Process
from repro.tracing.span import Span
from repro.tracing.warehouse import TraceWarehouse


class Application:
    """A microservices-based application under simulation.

    Args:
        env: simulation environment.
        warehouse: trace storage (a fresh one is created if omitted).
    """

    def __init__(self, env: Environment,
                 warehouse: TraceWarehouse | None = None) -> None:
        self.env = env
        self.warehouse = warehouse or TraceWarehouse()
        self.services: dict[str, Microservice] = {}
        self.entrypoints: dict[str, tuple[str, str]] = {}
        self._process_names: dict[str, str] = {}
        #: request type -> (completion time, response time) log.
        self.latency: dict[str, TimeSeries] = {}
        self.in_flight = 0
        self.total_submitted = 0
        #: Requests abandoned on an unrecovered CallError, by type.
        self.failed: dict[str, int] = {}
        self.failed_total = 0

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    def add_service(self, service: Microservice) -> Microservice:
        """Register a service (name must be unique)."""
        if service.name in self.services:
            raise ValueError(f"duplicate service {service.name!r}")
        service.app = self
        self.services[service.name] = service
        return service

    def service(self, name: str) -> Microservice:
        """Look up a registered service."""
        try:
            return self.services[name]
        except KeyError:
            raise KeyError(f"unknown service {name!r} "
                           f"(has: {sorted(self.services)})") from None

    def set_entrypoint(self, request_type: str, service: str,
                       operation: str = "default") -> None:
        """Map a request type to its front-door service/operation."""
        if service not in self.services:
            raise KeyError(f"unknown service {service!r}")
        if operation not in self.services[service].operations:
            raise KeyError(f"service {service!r} has no operation "
                           f"{operation!r}")
        self.entrypoints[request_type] = (service, operation)
        self._process_names[request_type] = f"request:{request_type}"
        self.latency.setdefault(request_type, TimeSeries(1))

    def call_graph(self) -> nx.DiGraph:
        """The static service dependency graph (who calls whom)."""
        graph = nx.DiGraph()
        for name, service in self.services.items():
            graph.add_node(name)
            for operation in service.operations.values():
                for call in operation.downstream_calls():
                    graph.add_edge(name, call.service)
        return graph

    def validate(self) -> None:
        """Check every Call targets a registered service/operation."""
        for name, service in self.services.items():
            for operation in service.operations.values():
                for call in operation.downstream_calls():
                    target = self.services.get(call.service)
                    if target is None:
                        raise ValueError(
                            f"{name}.{operation.name} calls unknown "
                            f"service {call.service!r}")
                    if call.operation not in target.operations:
                        raise ValueError(
                            f"{name}.{operation.name} calls unknown "
                            f"operation {call.service}.{call.operation}")
                    if call.via_pool and call.via_pool not in \
                            service.client_pools:
                        raise ValueError(
                            f"{name}.{operation.name} references missing "
                            f"client pool {call.via_pool!r}")

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def submit(self, request_type: str) -> tuple[Request, Process]:
        """Inject one user request; returns it plus the process to wait
        on (the process's value is the finished request)."""
        if request_type not in self.entrypoints:
            raise KeyError(f"unknown request type {request_type!r} "
                           f"(has: {sorted(self.entrypoints)})")
        env = self.env
        request = Request(request_type=request_type, issued_at=env._now)
        self.in_flight += 1
        self.total_submitted += 1
        process = Process(env, self._drive(request),
                          name=self._process_names[request_type])
        return request, process

    def submit_batch(self, request_type: str, count: int
                     ) -> list[tuple[Request, Process]]:
        """Inject ``count`` requests at the current instant.

        The request processes bootstrap through a single scheduler
        entry (:meth:`~repro.sim.engine.Environment.schedule_batch`)
        instead of ``count`` individual ones, which is what makes
        population step-ups of tens of thousands of users affordable.
        Processing order and the observed event stream are identical
        to ``count`` consecutive :meth:`submit` calls.
        """
        if request_type not in self.entrypoints:
            raise KeyError(f"unknown request type {request_type!r} "
                           f"(has: {sorted(self.entrypoints)})")
        if count <= 0:
            return []
        env = self.env
        now = env._now
        name = self._process_names[request_type]
        bootstraps: list[Event] = []
        out: list[tuple[Request, Process]] = []
        for _ in range(count):
            request = Request(request_type=request_type, issued_at=now)
            process = Process(env, self._drive(request), name=name,
                              defer_to=bootstraps)
            out.append((request, process))
        self.in_flight += count
        self.total_submitted += count
        env.schedule_batch(bootstraps)
        return out

    def route(self, service_name: str, operation: str, request: Request,
              parent_span: Span | None):
        """Route one invocation to a service (sub-process generator)."""
        service = self.services.get(service_name)
        if service is None:
            raise KeyError(f"unknown service {service_name!r}")
        result = yield from service.handle(request, operation, parent_span)
        return result

    def _drive(self, request: Request):
        service_name, operation = self.entrypoints[request.request_type]
        try:
            # route() inlined (entrypoints are validated at
            # registration): one less generator frame per request.
            root_span = yield from self.services[service_name].handle(
                request, operation, None)
        except CallError as error:
            # A call failed past its resilience policy (or a service
            # was down with none attached): the request is abandoned
            # but the closed loop continues — drivers that yield on
            # the request process must not die with it.
            self._record_failure(request, error)
            return request
        except Interrupt as interrupt:
            # Crash with drop_inflight interrupts victims with a
            # CallError cause; other interrupts (external chaos) keep
            # their original semantics and propagate.
            if isinstance(interrupt.cause, CallError):
                self._record_failure(request, interrupt.cause)
                return request
            raise
        finally:
            self.in_flight -= 1
        request.root_span = root_span
        request.completed_at = self.env._now
        self.latency[request.request_type].append(
            request.completed_at, request.response_time)
        self.warehouse.record(root_span)
        return request

    def _record_failure(self, request: Request, error: CallError) -> None:
        request.failed_at = self.env._now
        request.failure = f"{error.service}: {error.reason}"
        self.failed[request.request_type] = \
            self.failed.get(request.request_type, 0) + 1
        self.failed_total += 1
