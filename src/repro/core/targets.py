"""Adaptation targets: which soft resource a controller reconfigures.

A :class:`SoftResourceTarget` adapts the estimator to one concrete
knob — Cart's per-replica server thread pool, Catalogue's DB connection
pool, Home-Timeline's ClientPool to Post Storage — exposing a uniform
interface: a per-replica concurrency probe, a completion-latency
source for goodput, and an ``apply()`` that writes the recommendation
back through the service's reconfiguration API (the simulated analogue
of Jolokia/JMX, Golang ``database/sql``, and Thrift ClientPool knobs,
§4.2).

Concurrency is normalized *per replica of the bottleneck service*, so
the knee found by the model is a per-replica optimum; ``apply()``
multiplies back by the replica count where the physical pool is shared
(client pools), exactly reproducing the paper's Fig. 12 behaviour
(10 conns/replica × 4 replicas → 40 total, drifting to 30 × 4 = 120).
"""

from __future__ import annotations

import abc

import numpy as np

from repro.app.service import Microservice


class SoftResourceTarget(abc.ABC):
    """One adaptable soft resource, as seen by a controller."""

    #: The service whose processing the resource gates (goodput source
    #: and critical-service identity).
    service: Microservice

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Human-readable identity ("cart.threads", ...)."""

    @abc.abstractmethod
    def concurrency(self) -> float:
        """Instantaneous per-replica processing concurrency."""

    @abc.abstractmethod
    def concurrency_integral(self) -> float:
        """Cumulative per-replica concurrency-seconds (samplers
        difference this to obtain interval-mean concurrency)."""

    @abc.abstractmethod
    def allocation(self) -> int:
        """Currently allocated per-replica pool size."""

    @abc.abstractmethod
    def total_allocation(self) -> int:
        """Physically allocated tokens across the whole service."""

    @abc.abstractmethod
    def apply(self, per_replica_size: int) -> None:
        """Reconfigure the pool to a per-replica size."""

    def completion_latencies(self, since: float,
                             until: float) -> np.ndarray:
        """Residence times of the gated service's completions."""
        return self.service.metrics.window(since, until)[1]

    def processing_latencies(self, since: float,
                             until: float) -> np.ndarray:
        """Post-admission processing times of the gated service.

        Excludes the service's own admission-queue wait: this is the
        part of latency that *growing* the pool cannot reduce, so the
        adapter uses it to decide whether saturation-driven exploration
        can possibly help.
        """
        return self.service.metrics.window(since, until)[2]


class ThreadPoolTarget(SoftResourceTarget):
    """A service's per-replica server thread pool (e.g. Cart)."""

    def __init__(self, service: Microservice) -> None:
        if service.thread_pool_size is None:
            raise ValueError(
                f"service {service.name!r} has no server thread pool")
        self.service = service

    @property
    def name(self) -> str:
        return f"{self.service.name}.threads"

    def concurrency(self) -> float:
        replicas = max(1, self.service.replica_count)
        return self.service.server_concurrency() / replicas

    def concurrency_integral(self) -> float:
        replicas = max(1, self.service.replica_count)
        return self.service.server_concurrency_integral() / replicas

    def allocation(self) -> int:
        size = self.service.thread_pool_size
        assert size is not None
        return size

    def total_allocation(self) -> int:
        total = self.service.server_pool_capacity()
        assert total is not None
        return total

    def apply(self, per_replica_size: int) -> None:
        if per_replica_size < 1:
            raise ValueError(
                f"pool size must be >= 1, got {per_replica_size}")
        self.service.set_thread_pool_size(per_replica_size)


class ClientPoolTarget(SoftResourceTarget):
    """A client pool on an upstream service gating calls to a
    downstream service (e.g. Catalogue -> catalogue-db connections, or
    Home-Timeline -> Post Storage request connections).

    The *downstream* service is the one whose processing the pool
    gates; its replica count scales the physical pool size.
    """

    def __init__(self, owner: Microservice, pool_name: str,
                 downstream: Microservice) -> None:
        if pool_name not in owner.client_pools:
            raise ValueError(
                f"service {owner.name!r} has no client pool "
                f"{pool_name!r}")
        self.owner = owner
        self.pool_name = pool_name
        self.service = downstream

    @property
    def name(self) -> str:
        return f"{self.owner.name}.{self.pool_name}->{self.service.name}"

    @property
    def pool(self):
        """The underlying shared pool object."""
        return self.owner.client_pools[self.pool_name]

    def concurrency(self) -> float:
        replicas = max(1, self.service.replica_count)
        return self.pool.in_use / replicas

    def concurrency_integral(self) -> float:
        replicas = max(1, self.service.replica_count)
        return self.pool.in_use_integral() / replicas

    def allocation(self) -> int:
        replicas = max(1, self.service.replica_count)
        return max(1, round(self.pool.capacity / replicas))

    def total_allocation(self) -> int:
        return self.pool.capacity

    def apply(self, per_replica_size: int) -> None:
        if per_replica_size < 1:
            raise ValueError(
                f"pool size must be >= 1, got {per_replica_size}")
        replicas = max(1, self.service.replica_count)
        self.owner.resize_client_pool(
            self.pool_name, per_replica_size * replicas)
