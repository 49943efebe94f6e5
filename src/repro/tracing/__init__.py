"""Distributed tracing substrate (Jaeger/Zipkin stand-in).

Spans record per-service arrival/departure timestamps; the
:class:`TraceWarehouse` stores finished traces with their critical
paths as columns, which windowed localization and propagation reduce;
:func:`extract_critical_path` finds the maximal-duration root-to-leaf
chain of a request call tree. For runs
too large to store every trace, :mod:`repro.tracing.sampling` provides
head/tail samplers and :mod:`repro.tracing.analytics` a streaming
critical-path aggregator that preserves the localization signal on
bounded memory.
"""

from repro.tracing.analytics import (
    CriticalPathAggregator,
    Exemplar,
    StreamingPearson,
    TopKPaths,
)
from repro.tracing.export import (
    export_traces,
    trace_to_jaeger,
    traces_from_jaeger,
    write_traces,
)
from repro.tracing.critical_path import (
    CriticalPath,
    critical_path_frequencies,
    extract_critical_path,
)
from repro.tracing.sampling import (
    SAMPLER_STREAM,
    HeadSampler,
    TailSampler,
    TraceSampler,
    sampler_stream,
)
from repro.tracing.span import Span
from repro.tracing.warehouse import TraceWarehouse, TraceWindow

__all__ = [
    "CriticalPath",
    "CriticalPathAggregator",
    "Exemplar",
    "HeadSampler",
    "SAMPLER_STREAM",
    "Span",
    "StreamingPearson",
    "TailSampler",
    "TopKPaths",
    "TraceSampler",
    "TraceWarehouse",
    "TraceWindow",
    "critical_path_frequencies",
    "export_traces",
    "extract_critical_path",
    "sampler_stream",
    "trace_to_jaeger",
    "traces_from_jaeger",
    "write_traces",
]
