"""Critical Service Localization (SCG phase 1, paper §3.2).

Two-step method inspired by FIRM:

1. *Utilization screening* — services whose resource utilization is
   near capacity are candidate critical services (congestion suspects).
2. *Correlation ranking* — over the traces in the analysis window,
   compute the Pearson correlation between each service's processing
   time (:math:`PT_{s_i}`, downstream-excluded) and the end-to-end
   response time of the critical path (:math:`RT_{CP}`). The service
   with the largest coefficient contributes most to latency variation.

When both steps nominate a service (they "overlap most of the time" per
the paper) that service is returned; otherwise the correlation winner
among the utilization candidates, falling back to the global
correlation winner.
"""

from __future__ import annotations

import logging
import typing as _t
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.correlation import pearson
from repro.tracing.span import Span
from repro.tracing.warehouse import TraceWindow

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class LocalizationReport:
    """Outcome of one localization pass.

    Attributes:
        critical_service: the nominated service (``None`` if the window
            held no traces).
        dominant_path: the most frequent critical path in the window.
        correlations: PCC(PT_s, RT_CP) per service.
        utilizations: the utilization snapshot used for screening.
        candidates: services that passed the utilization screen.
        path_frequencies: occurrences of each distinct critical path.
    """

    critical_service: str | None
    dominant_path: tuple[str, ...]
    correlations: dict[str, float] = field(default_factory=dict)
    utilizations: dict[str, float] = field(default_factory=dict)
    candidates: tuple[str, ...] = ()
    path_frequencies: dict[tuple[str, ...], int] = field(
        default_factory=dict)


class CriticalServiceLocator:
    """Locates the bottleneck service on the dominant critical path.

    Args:
        utilization_threshold: utilization fraction above which a
            service is considered a congestion candidate (step 1).
        exclude: services never nominated (e.g. the front-end itself,
            which hardware/soft scaling does not target).
    """

    def __init__(self, utilization_threshold: float = 0.7,
                 exclude: _t.Sequence[str] = ()) -> None:
        if not 0.0 < utilization_threshold <= 1.0:
            raise ValueError(
                f"utilization_threshold must be in (0, 1], got "
                f"{utilization_threshold}")
        self.utilization_threshold = utilization_threshold
        self.exclude = frozenset(exclude)

    def locate(self, traces: _t.Sequence[Span],
               utilizations: dict[str, float]) -> LocalizationReport:
        """Analyze ``traces`` (finished roots) plus a utilization
        snapshot and nominate the critical service.

        A :class:`~repro.tracing.warehouse.TraceWindow` from the
        warehouse already carries its critical-path columns; any other
        sequence of roots has its paths extracted here.
        """
        if not traces:
            return LocalizationReport(
                critical_service=None, dominant_path=(),
                utilizations=dict(utilizations))

        # The window's path census, in first-occurrence order (a
        # Counter's order, so ties go to the earliest path).
        window = TraceWindow.of(traces)
        ids, first, counts = np.unique(window.path, return_index=True,
                                       return_counts=True)
        path_frequencies = {window.paths[ids[k]]: int(counts[k])
                            for k in np.argsort(first).tolist()}
        dominant_path = max(path_frequencies,
                            key=path_frequencies.__getitem__)
        # (PT_s, RT_CP) sample pairs per service, trace by trace and hop
        # by hop, services in order of first occurrence.
        hop_service = window.hop_service
        hop_duration = window.duration[window.owner]
        ids, first = np.unique(hop_service, return_index=True)
        correlations = {}
        for sid in ids[np.argsort(first)].tolist():
            service = window.services[sid]
            if service not in self.exclude:
                hops = hop_service == sid
                correlations[service] = pearson(
                    window.hop_processing[hops], hop_duration[hops])
        candidates = tuple(
            service for service, value in utilizations.items()
            if value >= self.utilization_threshold
            and service not in self.exclude
        )

        critical = self._pick(correlations, candidates, dominant_path)
        if logger.isEnabledFor(logging.DEBUG):
            ranked = sorted(correlations.items(), key=lambda kv: -kv[1])
            logger.debug(
                "localized %s from %d traces (candidates=%s, top "
                "correlations=%s)", critical, len(traces),
                list(candidates),
                [(s, round(c, 3)) for s, c in ranked[:3]])
        return LocalizationReport(
            critical_service=critical,
            dominant_path=dominant_path,
            correlations=correlations,
            utilizations=dict(utilizations),
            candidates=candidates,
            path_frequencies=path_frequencies,
        )

    def locate_from_aggregate(
            self, analytics,
            utilizations: dict[str, float]) -> LocalizationReport:
        """Nominate the critical service from streaming aggregates.

        Same two-step method as :meth:`locate`, but consuming a
        :class:`~repro.tracing.analytics.CriticalPathAggregator`
        instead of raw traces: the aggregator's streaming Pearson
        accumulators stand in for the per-window sample pairs and its
        top-K path table for the exhaustive path census. This is the
        sampling-proof path — the aggregator sees every finished trace
        before any sampling decision, so localization is identical
        whether the warehouse stores 100% or 5% of traces. The
        trade-off: correlations are run-to-date rather than windowed.
        """
        if analytics is None or not analytics.traces_observed:
            return LocalizationReport(
                critical_service=None, dominant_path=(),
                utilizations=dict(utilizations))
        correlations = {
            service: value
            for service, value in analytics.correlations().items()
            if service not in self.exclude
        }
        frequencies = analytics.path_frequencies()
        dominant_path = (max(frequencies, key=frequencies.__getitem__)
                         if frequencies else ())
        candidates = tuple(
            service for service, value in utilizations.items()
            if value >= self.utilization_threshold
            and service not in self.exclude
        )
        critical = self._pick(correlations, candidates, dominant_path)
        return LocalizationReport(
            critical_service=critical,
            dominant_path=dominant_path,
            correlations=correlations,
            utilizations=dict(utilizations),
            candidates=candidates,
            path_frequencies=dict(frequencies),
        )

    def _pick(self, correlations: dict[str, float],
              candidates: tuple[str, ...],
              dominant_path: tuple[str, ...]) -> str | None:
        if not correlations:
            return None
        # Prefer utilization candidates that actually sit on critical
        # paths; fall back to pure correlation ranking.
        scored_candidates = [c for c in candidates if c in correlations]
        pool = scored_candidates or [s for s in correlations]
        if not pool:
            return None
        best = max(pool, key=lambda s: (correlations[s],
                                        s in dominant_path))
        return best
