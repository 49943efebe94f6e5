"""Workload traces and drivers (RUBBoS-style closed loop, Poisson open loop)."""

from repro.workloads.drivers import ClosedLoopDriver, OpenLoopDriver
from repro.workloads.traces import (
    TRACE_NAMES,
    WorkloadTrace,
    all_traces,
    big_spike,
    build_trace,
    dual_phase,
    large_variation,
    quick_varying,
    slowly_varying,
    steep_tri_phase,
)

__all__ = [
    "ClosedLoopDriver",
    "OpenLoopDriver",
    "TRACE_NAMES",
    "WorkloadTrace",
    "all_traces",
    "big_spike",
    "build_trace",
    "dual_phase",
    "large_variation",
    "quick_varying",
    "slowly_varying",
    "steep_tri_phase",
]
