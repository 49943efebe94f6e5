"""RT Threshold Propagation (SCG phase 2, paper §3.2).

Deadline propagation lets a local service perceive the global SLA: for
critical service :math:`s_i` at depth :math:`i` of the critical path,

.. math:: RTT_{s_i} \\le SLA - \\sum_{k=0}^{i-1} PT_{s_k}

— the global SLA minus the processing time (request + response, i.e.
downstream-excluded self time) of every upstream service on the path.
The upstream budget is measured from the traces in the analysis window,
so the propagated threshold tracks runtime conditions.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass

import numpy as np

from repro.tracing.span import Span
from repro.tracing.warehouse import TraceWindow


@dataclass(frozen=True)
class PropagatedDeadline:
    """A propagated response-time threshold for one service.

    Attributes:
        service: the critical service.
        sla: global end-to-end SLA (seconds).
        upstream_budget: measured mean upstream processing time.
        threshold: the resulting local RT threshold.
        samples: traces that contributed (service was on their critical
            path).
    """

    service: str
    sla: float
    upstream_budget: float
    threshold: float
    samples: int


def check_floor_fraction(floor_fraction: float) -> None:
    """Reject a threshold floor outside ``[0, 1)``."""
    if not 0.0 <= floor_fraction < 1.0:
        raise ValueError(
            f"floor_fraction must be in [0, 1), got {floor_fraction}")


def clamp_threshold(threshold: float, sla: float,
                    floor_fraction: float) -> float:
    """Clamp a propagated threshold to ``[floor_fraction * sla, sla]``:
    upstream congestion must not starve the critical service's budget
    entirely, and no local threshold exceeds the global SLA."""
    return min(sla, max(sla * floor_fraction, threshold))


class DeadlinePropagator:
    """Window-level deadline propagation.

    Args:
        sla: end-to-end SLA in seconds.
        floor_fraction: the local threshold never drops below
            ``floor_fraction * sla`` — upstream congestion must not
            starve the critical service's budget entirely.
    """

    def __init__(self, sla: float, floor_fraction: float = 0.1) -> None:
        if sla <= 0:
            raise ValueError(f"sla must be positive, got {sla}")
        check_floor_fraction(floor_fraction)
        self.sla = sla
        self.floor_fraction = floor_fraction

    def propagate(self, traces: _t.Sequence[Span],
                  service: str) -> PropagatedDeadline:
        """Mean-upstream-budget propagation over a trace window.

        Each trace whose critical path crosses ``service`` contributes
        ``sla - upstream_budget`` of the service's first hop on it. With
        no applicable traces the full SLA is returned (a service with no
        observed upstreams keeps the whole budget).
        """
        window = TraceWindow.of(traces)
        sid = window.service_id(service)
        thresholds = np.empty(0)
        if sid is not None:
            # The service's first hop on each path it crossed; its
            # threshold is the SLA minus that hop's upstream budget.
            hops = np.flatnonzero(window.hop_service == sid)
            owners = window.owner[hops]
            first = np.ones(hops.size, dtype=bool)
            first[1:] = owners[1:] != owners[:-1]
            thresholds = self.sla - window.hop_upstream[hops[first]]
        if not thresholds.size:
            return PropagatedDeadline(
                service=service, sla=self.sla, upstream_budget=0.0,
                threshold=self.sla, samples=0)
        mean_threshold = float(np.mean(thresholds))
        return PropagatedDeadline(
            service=service, sla=self.sla,
            upstream_budget=self.sla - mean_threshold,
            threshold=clamp_threshold(mean_threshold, self.sla,
                                      self.floor_fraction),
            samples=int(thresholds.size))
