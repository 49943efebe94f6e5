"""Microservices, replicas, and request handling.

A :class:`Microservice` owns one or more :class:`Replica` instances
(pods). Each replica has a core-limited CPU and, unless the service is
implemented in an async style (Golang goroutines), a server thread pool
gating its request-processing concurrency. Services may also own named
*client pools* (DB connection pools, RPC client pools) gating their
outbound calls.

Hardware scaling maps onto Kubernetes primitives:

- horizontal (HPA): :meth:`Microservice.scale_replicas`
- vertical (VPA / FIRM): :meth:`Microservice.set_cores`

Soft resource adaptation (what Sora does):

- :meth:`Microservice.set_thread_pool_size` (per replica), and
- :meth:`Microservice.resize_client_pool` (shared across replicas).
"""

from __future__ import annotations

import typing as _t

import numpy as np

from repro.app.behavior import (
    Call,
    Choice,
    Compute,
    Hedge,
    Operation,
    Parallel,
    Quorum,
    Step,
)
from repro.app.loadbalancer import LoadBalancer, RoundRobin
from repro.app.request import Request
from repro.faults.resilience import (
    BoundPolicy,
    CallError,
    CallPolicy,
    CallTimeout,
    CircuitOpenError,
    InjectedFailure,
    LoadShedError,
    ServiceUnavailable,
)
from repro.metrics.sampler import TimeSeries
from repro.resources.cpu import ProcessorSharingCpu
from repro.resources.pool import SoftResourcePool
from repro.sim.engine import Environment
from repro.sim.errors import Interrupt
from repro.tracing.span import Span

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.app.application import Application
    from repro.faults.injectors import EdgeDisruption
    from repro.sim.process import Process


class Replica:
    """One pod of a microservice: a CPU plus an optional thread pool."""

    def __init__(self, env: Environment, service_name: str, index: int,
                 cores: float, cpu_overhead: float,
                 thread_pool_size: int | None) -> None:
        self.env = env
        self.name = f"{service_name}-{index}"
        self.cpu = ProcessorSharingCpu(
            env, cores=cores, overhead=cpu_overhead, name=f"{self.name}.cpu")
        self.server_pool: SoftResourcePool | None = None
        if thread_pool_size is not None:
            self.server_pool = SoftResourcePool(
                env, capacity=thread_pool_size, name=f"{self.name}.threads")
        self.active_requests = 0
        self.draining = False
        self._active_integral = 0.0
        self._active_since = env.now

    @property
    def concurrency(self) -> int:
        """Requests currently being *processed* (not queued)."""
        if self.server_pool is not None:
            return self.server_pool.in_use
        return self.active_requests

    def request_started(self) -> None:
        """Account one request entering the replica."""
        self._integrate_active()
        self.active_requests += 1

    def request_finished(self) -> None:
        """Account one request leaving the replica."""
        self._integrate_active()
        self.active_requests -= 1

    def active_integral(self) -> float:
        """Cumulative in-flight-request-seconds (mean concurrency via
        differencing — used for async services with no server pool)."""
        self._integrate_active()
        return self._active_integral

    def concurrency_integral(self) -> float:
        """Cumulative processing-concurrency-seconds for this replica."""
        if self.server_pool is not None:
            return self.server_pool.in_use_integral()
        return self.active_integral()

    def _integrate_active(self) -> None:
        now = self.env._now
        dt = now - self._active_since
        if dt > 0.0:
            self._active_integral += self.active_requests * dt
            self._active_since = now

    def __repr__(self) -> str:
        return (f"<Replica {self.name} cores={self.cpu.cores} "
                f"active={self.active_requests}>")


class Microservice:
    """A named, replicated microservice.

    Args:
        env: simulation environment.
        name: service name ("cart", "catalogue-db", ...).
        rng: random generator for this service's demand draws.
        cores: per-replica CPU limit.
        cpu_overhead: context-switch penalty (see
            :class:`~repro.resources.cpu.ProcessorSharingCpu`).
        thread_pool_size: per-replica server thread pool; ``None`` means
            async request handling with no server-side gate (Golang
            style).
        replicas: initial replica count.
        load_balancer: replica selection policy (default round-robin).
    """

    def __init__(self, env: Environment, name: str,
                 rng: np.random.Generator, *, cores: float = 2.0,
                 cpu_overhead: float = 0.0,
                 thread_pool_size: int | None = None, replicas: int = 1,
                 load_balancer: LoadBalancer | None = None) -> None:
        if replicas < 1:
            raise ValueError(f"need at least one replica, got {replicas}")
        self.env = env
        self.name = name
        self._rng = rng
        self._default_cores = float(cores)
        self._cpu_overhead = float(cpu_overhead)
        self._thread_pool_size = thread_pool_size
        self.load_balancer = load_balancer or RoundRobin()
        self.operations: dict[str, Operation] = {}
        self.client_pools: dict[str, SoftResourcePool] = {}
        #: Completion log keyed by departure: (residence time,
        #: processing time), the latter excluding the service's own
        #: admission-queue wait.
        self.metrics = TimeSeries(2)
        self.app: "Application | None" = None
        #: Multiplier applied to every sampled CPU demand — the hook used
        #: to model system-state drift (light -> heavy requests, §2.3).
        self.demand_scale = 1.0
        # Per-distribution batch buffers (id(dist) -> [values, cursor]):
        # demand draws are refilled 256 at a time, which consumes this
        # service's dedicated stream exactly as single draws would.
        self._demand_buffers: dict[int, list] = {}

        # Fault/resilience state (see repro.faults). All of it defaults
        # to "off", in which case the request path pays only attribute
        # checks — no extra events, no extra draws — so runs without
        # faults stay byte-identical to runs before this layer existed.
        self._down = False
        self._track_inflight = False
        self._inflight: set["Process"] = set()
        self._call_policies: dict[str, BoundPolicy] = {}
        self._edge_faults: dict[str, list["EdgeDisruption"]] = {}
        self._call_layer_active = False

        self._replica_counter = 0
        self.replicas: list[Replica] = []
        self._retired_busy = 0.0
        self._retired_capacity = 0.0
        self._retired_concurrency = 0.0
        for _ in range(replicas):
            self._add_replica()

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def add_operation(self, operation: Operation) -> "Microservice":
        """Register a behavior; returns self for chaining."""
        self.operations[operation.name] = operation
        return self

    def add_client_pool(self, name: str, capacity: int) -> SoftResourcePool:
        """Create a named client pool shared by all replicas."""
        if name in self.client_pools:
            raise ValueError(f"client pool {name!r} already exists")
        pool = SoftResourcePool(self.env, capacity=capacity,
                                name=f"{self.name}.{name}")
        self.client_pools[name] = pool
        return pool

    def client_pool(self, name: str) -> SoftResourcePool:
        """Look up a client pool by name."""
        return self.client_pools[name]

    # ------------------------------------------------------------------
    # Hardware scaling
    # ------------------------------------------------------------------
    @property
    def replica_count(self) -> int:
        """Active (non-draining) replicas."""
        return len(self.replicas)

    @property
    def cores_per_replica(self) -> float:
        """Current per-replica CPU limit."""
        return self._default_cores

    def scale_replicas(self, count: int) -> None:
        """Horizontal scaling: grow or (gracefully) shrink the replica
        set. Removed replicas finish their in-flight requests but stop
        receiving new ones."""
        if count < 1:
            raise ValueError(f"need at least one replica, got {count}")
        while len(self.replicas) < count:
            self._add_replica()
        while len(self.replicas) > count:
            replica = self.replicas.pop()
            replica.draining = True
            self._retired_busy += replica.cpu.busy_core_seconds()
            self._retired_capacity += replica.cpu.capacity_core_seconds()
            self._retired_concurrency += replica.concurrency_integral()

    def set_cores(self, cores: float) -> None:
        """Vertical scaling: change the CPU limit of every replica."""
        self._default_cores = float(cores)
        for replica in self.replicas:
            replica.cpu.set_cores(cores)

    # ------------------------------------------------------------------
    # Soft resource adaptation
    # ------------------------------------------------------------------
    @property
    def thread_pool_size(self) -> int | None:
        """Per-replica server thread pool size (``None`` = unbounded)."""
        return self._thread_pool_size

    def set_thread_pool_size(self, size: int) -> None:
        """Resize every replica's server thread pool online."""
        if self._thread_pool_size is None:
            raise ValueError(
                f"service {self.name!r} has no server thread pool")
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        self._thread_pool_size = size
        for replica in self.replicas:
            assert replica.server_pool is not None
            replica.server_pool.resize(size)

    def resize_client_pool(self, name: str, capacity: int) -> None:
        """Resize a named client pool online."""
        self.client_pools[name].resize(capacity)

    # ------------------------------------------------------------------
    # Faults & resilience (see repro.faults)
    # ------------------------------------------------------------------
    @property
    def down(self) -> bool:
        """Whether the service is crashed (refusing all invocations)."""
        return self._down

    def crash(self, *, drop_inflight: bool = False) -> int:
        """Take the service down; every new invocation raises
        :class:`~repro.faults.resilience.ServiceUnavailable`.

        With ``drop_inflight`` the requests currently inside the
        service are interrupted and fail (requires
        :meth:`track_inflight` to have been armed before they
        entered); without it they drain normally. Returns the number
        of requests dropped.
        """
        self._down = True
        if not drop_inflight:
            return 0
        cause = ServiceUnavailable(self.name, "crashed (in-flight drop)")
        victims = [proc for proc in self._inflight if proc.is_alive]
        for proc in victims:
            proc.interrupt(cause=cause)
        return len(victims)

    def restore(self) -> None:
        """Bring a crashed service back online."""
        self._down = False

    def track_inflight(self) -> None:
        """Arm per-request process tracking (needed by drop-mode
        crashes; off by default to keep the request path pure)."""
        self._track_inflight = True

    def set_call_policy(self, callee: str, policy: CallPolicy,
                        rng: np.random.Generator | None = None) -> None:
        """Attach a resilience policy to this service's calls to
        ``callee``.

        Args:
            callee: target service name of the guarded edge.
            policy: timeout/retry/breaker/shedding configuration.
            rng: dedicated stream for retry-backoff jitter — pass
                ``streams.stream(f"resilience.{self.name}.{callee}")``
                so replay fingerprints stay stable. Without it,
                backoff is deterministic (no jitter).
        """
        self._call_policies[callee] = BoundPolicy(policy=policy, rng=rng)
        self._call_layer_active = True

    def call_policy_stats(self, callee: str) -> dict[str, int]:
        """Runtime counters of the policy guarding calls to ``callee``."""
        return self._call_policies[callee].stats

    def breaker_states(self) -> dict[str, str]:
        """Circuit-breaker state per guarded callee edge.

        ``callee -> "closed" | "open" | "half-open"``, only for edges
        whose policy actually configures a breaker. The telemetry pump
        samples this into ``breaker.<caller>-><callee>`` series.
        """
        return {callee: bound.breaker.state
                for callee, bound in self._call_policies.items()
                if bound.breaker is not None}

    def add_edge_disruption(self, callee: str,
                            disruption: "EdgeDisruption") -> None:
        """Install an active edge fault on calls to ``callee``
        (used by :class:`~repro.faults.injectors.FaultInjector`)."""
        self._edge_faults.setdefault(callee, []).append(disruption)
        self._call_layer_active = True

    def remove_edge_disruption(self, callee: str,
                               disruption: "EdgeDisruption") -> None:
        """Remove a previously installed edge fault (no-op if absent)."""
        active = self._edge_faults.get(callee)
        if active is None:
            return
        if disruption in active:
            active.remove(disruption)
        if not active:
            del self._edge_faults[callee]
        self._call_layer_active = bool(self._call_policies
                                       or self._edge_faults)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def server_concurrency(self) -> int:
        """Instantaneous processing concurrency across replicas."""
        return sum(replica.concurrency for replica in self.replicas)

    def server_concurrency_integral(self) -> float:
        """Cumulative processing-concurrency-seconds across replicas
        (including retired ones); difference over a window for the mean
        concurrency the SCG model samples."""
        return self._retired_concurrency + sum(
            replica.concurrency_integral() for replica in self.replicas)

    def server_pool_capacity(self) -> int | None:
        """Aggregate thread pool allocation (``None`` if unbounded)."""
        if self._thread_pool_size is None:
            return None
        return self._thread_pool_size * len(self.replicas)

    def queued_requests(self) -> int:
        """Requests waiting for a server thread across replicas."""
        return sum(r.server_pool.queue_length for r in self.replicas
                   if r.server_pool is not None)

    def cpu_totals(self) -> tuple[float, float]:
        """``(busy_core_seconds, capacity_core_seconds)`` cumulative over
        all replicas, including retired ones. Monitors difference these
        across a window to obtain utilization."""
        busy = self._retired_busy
        capacity = self._retired_capacity
        for replica in self.replicas:
            busy += replica.cpu.busy_core_seconds()
            capacity += replica.cpu.capacity_core_seconds()
        return busy, capacity

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------
    def handle(self, request: Request, operation_name: str = "default",
               parent_span: Span | None = None):
        """Process one invocation (a simulation sub-process).

        Returns the finished :class:`Span` as the generator's value.
        """
        operation = self.operations.get(operation_name)
        if operation is None:
            raise KeyError(
                f"service {self.name!r} has no operation "
                f"{operation_name!r} (has: {sorted(self.operations)})")
        if self._down:
            raise ServiceUnavailable(self.name, "crashed")
        env = self.env
        tracked = None
        if self._track_inflight:
            tracked = env.active_process
            if tracked is not None:
                self._inflight.add(tracked)
        replica = self.load_balancer.pick(self.replicas)
        span = Span(request.request_id, self.name, operation_name,
                    arrival=env._now, parent=parent_span,
                    replica=replica.name, span_id=next(env._span_ids))
        replica.request_started()
        pool_request = None
        try:
            if replica.server_pool is not None:
                pool_request = replica.server_pool.acquire()
                try:
                    yield pool_request
                except BaseException:
                    # Abandoned while queued (e.g. interrupted): the
                    # pending request must be cancelled or its eventual
                    # grant would leak a token forever.
                    if pool_request.granted_at is None:
                        replica.server_pool.cancel(pool_request)
                        pool_request = None
                    raise
            span.started = env._now
            for step in operation.steps:
                # Compute and pool-less Call cover nearly every step in
                # the built-in topologies; dispatching them here avoids
                # one to two sub-generator frames per step, which the
                # whole yield-from chain pays on every resume.
                if isinstance(step, Compute):
                    yield replica.cpu.submit(
                        self._sample_demand(step.demand)
                        * self.demand_scale)
                elif isinstance(step, Call) and step.via_pool is None \
                        and not self._call_layer_active:
                    app = self.app
                    if app is None:
                        raise RuntimeError(
                            f"service {self.name!r} is not attached "
                            f"to an application")
                    target = app.services.get(step.service)
                    if target is None:
                        raise KeyError(
                            f"unknown service {step.service!r}")
                    yield from target.handle(request, step.operation,
                                             span)
                else:
                    yield from self._execute(replica, step, request, span)
        except Interrupt:
            # Cancelled mid-flight (quorum/hedge straggler, timeout):
            # mark the span so exporters and tail samplers can tell
            # partial work from natural completion. The finally below
            # still stamps a valid departure at the interrupt time.
            span.cancelled = True
            raise
        finally:
            if tracked is not None:
                self._inflight.discard(tracked)
            if pool_request is not None and \
                    pool_request.granted_at is not None:
                assert replica.server_pool is not None
                replica.server_pool.release()
            replica.request_finished()
            departure = env._now
            span.departure = departure
            self.metrics.append(departure, departure - span.arrival,
                                departure - (span.started
                                             if span.started is not None
                                             else span.arrival))
        return span

    def _sample_demand(self, dist) -> float:
        """One demand draw through the per-distribution batch buffer."""
        entry = self._demand_buffers.get(id(dist))
        if entry is None:
            # Keeping ``dist`` in the entry pins the object, so its id
            # cannot be recycled while the buffer exists.
            entry = [dist.sample_batch(self._rng, 256), 0, dist]
            self._demand_buffers[id(dist)] = entry
        cursor = entry[1]
        if cursor == 256:
            entry[0] = dist.sample_batch(self._rng, 256)
            cursor = 0
        entry[1] = cursor + 1
        return entry[0][cursor]

    def _execute(self, replica: Replica, step: Step, request: Request,
                 span: Span):
        if isinstance(step, Compute):
            demand = self._sample_demand(step.demand) * self.demand_scale
            yield replica.cpu.submit(demand)
        elif isinstance(step, Call):
            yield from self._invoke(step, request, span)
        elif isinstance(step, Parallel):
            branches = [
                self.env.process(self._invoke(call, request, span),
                                 name=f"{self.name}->{call.service}")
                for call in step.calls
            ]
            yield self.env.all_of(branches)
        elif isinstance(step, Quorum):
            yield from self._quorum(step, request, span)
        elif isinstance(step, Hedge):
            yield from self._hedge(step, request, span)
        elif isinstance(step, Choice):
            weights = step.weights_at(self.env._now)
            total = sum(weights)
            draw = self._rng.random() * total
            cumulative = 0.0
            branch = step.branches[-1]
            for steps, weight in zip(step.branches, weights):
                cumulative += weight
                if draw < cumulative:
                    branch = steps
                    break
            for sub in branch:
                yield from self._execute(replica, sub, request, span)
        else:  # pragma: no cover - Operation validates step types
            raise TypeError(f"unknown step {step!r}")

    def _attempt(self, call: Call, request: Request, span: Span):
        """One cancellable branch of a Quorum/Hedge step.

        Runs as its own process; application-layer failures (including
        cancellation interrupts from the coordinator) are converted to
        an ``(ok, payload)`` value so the coordinating step can count
        successes without the process ever dying unconsumed.
        """
        try:
            result = yield from self._invoke(call, request, span)
        except CallError as error:
            return (False, error)
        except Interrupt as interrupt:
            if isinstance(interrupt.cause, CallError):
                return (False, interrupt.cause)
            raise
        return (True, result)

    def _quorum(self, step: Quorum, request: Request, span: Span):
        """Run a k-of-n quorum: spawn every member, wait for ``k``
        successes, then cancel the stragglers (their subtrees are
        truncated). Fails with the last member error once more than
        ``n - k`` members have failed."""
        env = self.env
        branches = [
            env.process(self._attempt(call, request, span),
                        name=f"{self.name}->{call.service}")
            for call in step.calls
        ]
        pending = list(branches)
        successes = 0
        last_error: CallError | None = None
        try:
            # Stop as soon as the quorum is met, or can no longer be
            # met even if every still-pending member succeeds.
            while successes < step.k and \
                    successes + len(pending) >= step.k:
                yield env.any_of(pending)
                still = []
                for proc in pending:
                    if proc.processed:
                        ok, payload = _t.cast(tuple, proc.value)
                        if ok:
                            successes += 1
                        else:
                            last_error = payload
                    else:
                        still.append(proc)
                pending = still
        finally:
            cause = CallError(self.name, "quorum resolved")
            for proc in pending:
                if proc.is_alive:
                    proc.interrupt(cause=cause)
        if successes < step.k:
            if last_error is None:  # pragma: no cover - defensive
                last_error = CallError(self.name, "quorum not met")
            raise last_error

    def _hedge(self, step: Hedge, request: Request, span: Span):
        """Run a hedged call: fire the primary, and if it is still in
        flight after the hedge delay fire an identical duplicate; the
        first success wins and the loser is cancelled."""
        env = self.env
        call = step.call
        procs = [env.process(self._attempt(call, request, span),
                             name=f"{self.name}->{call.service}")]
        try:
            yield env.any_of((procs[0], env.timeout(step.after)))
            if not procs[0].processed:
                procs.append(env.process(
                    self._attempt(call, request, span),
                    name=f"{self.name}->{call.service}#hedge"))
            winner: object = None
            won = False
            last_error: CallError | None = None
            pending = []
            for proc in procs:
                if proc.processed:
                    ok, payload = _t.cast(tuple, proc.value)
                    if ok:
                        winner, won = payload, True
                    else:
                        last_error = payload
                else:
                    pending.append(proc)
            while not won and pending:
                yield env.any_of(pending)
                still = []
                for proc in pending:
                    if proc.processed:
                        ok, payload = _t.cast(tuple, proc.value)
                        if ok and not won:
                            winner, won = payload, True
                        elif not ok:
                            last_error = payload
                    else:
                        still.append(proc)
                pending = still
            if not won:
                if last_error is None:  # pragma: no cover - defensive
                    last_error = CallError(call.service, "hedge failed")
                raise last_error
            return winner
        finally:
            cause = CallError(self.name, "hedge resolved")
            for proc in procs:
                if proc.is_alive:
                    proc.interrupt(cause=cause)

    def _invoke(self, call: Call, request: Request, span: Span):
        if self.app is None:
            raise RuntimeError(
                f"service {self.name!r} is not attached to an application")
        if self._call_layer_active:
            bound = self._call_policies.get(call.service)
            faults = self._edge_faults.get(call.service)
            if bound is not None or faults is not None:
                result = yield from self._invoke_guarded(
                    call, request, span, bound, faults)
                return result
        pool = self.client_pools.get(call.via_pool) if call.via_pool else None
        pool_request = None
        if pool is not None:
            pool_request = pool.acquire()
            try:
                yield pool_request
            except BaseException:
                if pool_request.granted_at is None:
                    pool.cancel(pool_request)
                else:
                    # Interrupted in the same tick the grant landed
                    # (quorum/hedge cancellation): the token is ours
                    # and nothing downstream will release it.
                    pool.release()
                pool_request = None
                raise
        # Application.route() inlined: one less generator frame per hop.
        target = self.app.services.get(call.service)
        if target is None:
            raise KeyError(f"unknown service {call.service!r}")
        try:
            result = yield from target.handle(request, call.operation, span)
        finally:
            if pool_request is not None and \
                    pool_request.granted_at is not None:
                pool.release()
        return result

    def _invoke_guarded(self, call: Call, request: Request, span: Span,
                        bound: BoundPolicy | None,
                        faults: "list[EdgeDisruption] | None"):
        """Slow-path invoke for edges with a resilience policy and/or
        an active injected fault (see :mod:`repro.faults`).

        Per attempt: breaker/shedding gate, client-pool admission,
        injected edge latency/failure, then the call itself (deadline-
        bounded when the policy has a timeout). Downstream failures —
        including interrupts caused by the callee dropping us — are
        retried per the policy; exhaustion either degrades (returns
        ``None``) or raises the last :class:`CallError`.
        """
        assert self.app is not None
        env = self.env
        target = self.app.services.get(call.service)
        if target is None:
            raise KeyError(f"unknown service {call.service!r}")
        pool = self.client_pools.get(call.via_pool) if call.via_pool else None
        policy = bound.policy if bound is not None else None
        breaker = bound.breaker if bound is not None else None
        attempts = policy.max_attempts if policy is not None else 1
        last_error: CallError | None = None
        for attempt in range(attempts):
            if breaker is not None and not breaker.allow(env._now):
                assert bound is not None
                bound.stats["short_circuited"] += 1
                last_error = CircuitOpenError(call.service, "circuit open")
                break
            if policy is not None and policy.shed_queue_limit is not None \
                    and pool is not None \
                    and pool.queue_length >= policy.shed_queue_limit:
                assert bound is not None
                bound.stats["shed"] += 1
                last_error = LoadShedError(call.service,
                                           "client pool saturated")
                break
            if attempt > 0:
                assert bound is not None and policy is not None \
                    and policy.retry is not None
                bound.stats["retries"] += 1
                delay = policy.retry.backoff(attempt - 1, bound.rng)
                if delay > 0.0:
                    yield env.timeout(delay)
            if bound is not None:
                bound.stats["attempts"] += 1
            pool_request = None
            try:
                if pool is not None:
                    pool_request = pool.acquire()
                    try:
                        yield pool_request
                    except BaseException:
                        if pool_request.granted_at is None:
                            pool.cancel(pool_request)
                            pool_request = None
                        raise
                if faults:
                    for disruption in tuple(faults):
                        extra = disruption.sample_latency()
                        if extra > 0.0:
                            yield env.timeout(extra)
                        if disruption.sample_failure():
                            if bound is not None:
                                bound.stats["injected"] += 1
                            raise InjectedFailure(
                                call.service,
                                "injected connection failure")
                if policy is not None and policy.timeout is not None:
                    result = yield from self._call_with_timeout(
                        target, call, request, span, policy.timeout,
                        bound)
                else:
                    result = yield from target.handle(
                        request, call.operation, span)
            except CallError as error:
                last_error = error
                if breaker is not None:
                    breaker.record_failure(env._now)
                continue
            except Interrupt as interrupt:
                cause = interrupt.cause
                if isinstance(cause, CallError) and \
                        cause.service == call.service:
                    # The callee dropped us mid-call (crash with
                    # drop_inflight): retryable at this layer.
                    last_error = cause
                    if breaker is not None:
                        breaker.record_failure(env._now)
                    continue
                raise
            finally:
                if pool_request is not None and \
                        pool_request.granted_at is not None:
                    pool.release()
            if breaker is not None:
                breaker.record_success()
            if bound is not None:
                bound.stats["successes"] += 1
            return result
        if bound is not None:
            bound.stats["failures"] += 1
        assert last_error is not None
        if policy is not None and policy.degrade:
            assert bound is not None
            bound.stats["degraded"] += 1
            return None
        raise last_error

    def _call_with_timeout(self, target: "Microservice", call: Call,
                           request: Request, span: Span, timeout: float,
                           bound: BoundPolicy | None):
        """Run one call attempt under a deadline.

        The attempt runs as a child process so the deadline can cut it
        loose: on expiry the child is interrupted (its finally blocks
        release any held pool tokens) and :class:`CallTimeout` is
        raised for the retry loop to handle.
        """
        env = self.env
        proc = env.process(target.handle(request, call.operation, span),
                           name=f"{self.name}->{call.service}")
        condition = env.any_of((proc, env.timeout(timeout)))
        try:
            yield condition
        except BaseException as error:
            if condition.triggered and not condition.ok and \
                    condition.value is error:
                # The child failed before the deadline; the condition
                # forwarded (and defused) its exception.
                if isinstance(error, Interrupt) and \
                        isinstance(error.cause, CallError):
                    raise error.cause from None
                raise
            # The caller itself was aborted while waiting: cut the
            # child loose and defuse the condition — nobody is left to
            # consume a failure it may still forward.
            condition.defused = True
            if proc.is_alive:
                proc.interrupt(cause=CallTimeout(call.service,
                                                 "caller aborted"))
            raise
        if proc.triggered:
            if proc.ok:
                return proc.value
            # Lost race: the child failed in the same timestep the
            # deadline fired; defuse it and surface the failure.
            proc.defused = True
            error = _t.cast(BaseException, proc.value)
            if isinstance(error, Interrupt) and \
                    isinstance(error.cause, CallError):
                raise error.cause from None
            raise error
        if bound is not None:
            bound.stats["timeouts"] += 1
        proc.interrupt(cause=CallTimeout(call.service,
                                         f"no response in {timeout:g}s"))
        raise CallTimeout(call.service, f"no response in {timeout:g}s")

    def __repr__(self) -> str:
        return (f"<Microservice {self.name!r} replicas={self.replica_count} "
                f"cores={self._default_cores} "
                f"threads={self._thread_pool_size}>")

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _add_replica(self) -> Replica:
        replica = Replica(self.env, self.name, self._replica_counter,
                          cores=self._default_cores,
                          cpu_overhead=self._cpu_overhead,
                          thread_pool_size=self._thread_pool_size)
        self._replica_counter += 1
        self.replicas.append(replica)
        return replica
