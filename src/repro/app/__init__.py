"""Microservice application model.

Services with replicas (pods), per-replica CPUs and thread pools, named
client pools, call-graph behaviors, load balancing, and end-to-end
request accounting.
"""

from repro.app.application import Application
from repro.app.behavior import Call, Compute, Operation, Parallel, Step
from repro.app.loadbalancer import (
    LeastConnections,
    LoadBalancer,
    RandomChoice,
    RoundRobin,
)
from repro.app.request import Request
from repro.app.service import Microservice, Replica

__all__ = [
    "Application",
    "Call",
    "Compute",
    "LeastConnections",
    "LoadBalancer",
    "Microservice",
    "Operation",
    "Parallel",
    "RandomChoice",
    "Replica",
    "Request",
    "RoundRobin",
    "Step",
]
