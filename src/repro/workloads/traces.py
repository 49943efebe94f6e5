"""The six real-world bursty workload trace shapes (paper Table 2).

The paper drives its evaluation with six bursty traces from Gandhi et
al.'s AutoScale work (TOCS'12): *Large Variation*, *Quick Varying*,
*Slowly Varying*, *Big Spike*, *Dual Phase*, and *Steep Tri Phase*.
The originals are demand curves measured against production systems;
here each shape is re-created parametrically (normalized load in
``[0, 1]`` over a configurable duration, scaled to a user population),
preserving the qualitative burst structure each name describes.

All trace functions are deterministic; stochasticity enters through the
workload drivers (think times / Poisson arrivals).
"""

from __future__ import annotations

import math
import typing as _t
from dataclasses import dataclass

TRACE_NAMES = (
    "large_variation",
    "quick_varying",
    "slowly_varying",
    "big_spike",
    "dual_phase",
    "steep_tri_phase",
)


@dataclass(frozen=True)
class WorkloadTrace:
    """A time-varying user population.

    Attributes:
        name: trace identifier.
        duration: trace length in seconds.
        peak_users: population at normalized load 1.0.
        min_users: floor population (keeps the system warm).
    """

    name: str
    duration: float
    peak_users: int
    min_users: int
    _shape: _t.Callable[[float], float]

    def load(self, t: float) -> float:
        """Normalized load in [0, 1] at time ``t`` (clamped to extent)."""
        clamped = min(max(t, 0.0), self.duration)
        return min(1.0, max(0.0, self._shape(clamped / self.duration)))

    def users(self, t: float) -> int:
        """Concurrent user population at time ``t``."""
        span = self.peak_users - self.min_users
        return self.min_users + int(round(self.load(t) * span))

    def series(self, interval: float = 1.0) -> list[tuple[float, int]]:
        """``(time, users)`` samples across the whole trace."""
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        steps = int(self.duration / interval) + 1
        return [(i * interval, self.users(i * interval))
                for i in range(steps)]


def _check(duration: float, peak_users: int, min_users: int) -> None:
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    if peak_users < 1:
        raise ValueError(f"peak_users must be >= 1, got {peak_users}")
    if not 0 <= min_users <= peak_users:
        raise ValueError(
            f"need 0 <= min_users <= peak_users, got {min_users}")


def large_variation(duration: float = 720.0, peak_users: int = 350,
                    min_users: int = 60) -> WorkloadTrace:
    """Repeated large swings: ±60% of peak on a ~100 s period with an
    irregular secondary oscillation."""

    def shape(u: float) -> float:
        main = 0.55 + 0.4 * math.sin(2 * math.pi * 7.0 * u)
        ripple = 0.12 * math.sin(2 * math.pi * 17.0 * u + 1.0)
        return main + ripple

    _check(duration, peak_users, min_users)
    return WorkloadTrace("large_variation", duration, peak_users,
                         min_users, shape)


def quick_varying(duration: float = 720.0, peak_users: int = 350,
                  min_users: int = 60) -> WorkloadTrace:
    """Fast oscillation: moderate amplitude on a ~30 s period."""

    def shape(u: float) -> float:
        return 0.6 + 0.35 * math.sin(2 * math.pi * 24.0 * u)

    _check(duration, peak_users, min_users)
    return WorkloadTrace("quick_varying", duration, peak_users,
                         min_users, shape)


def slowly_varying(duration: float = 720.0, peak_users: int = 350,
                   min_users: int = 60) -> WorkloadTrace:
    """One slow rise-and-fall across the whole trace."""

    def shape(u: float) -> float:
        return 0.25 + 0.75 * math.sin(math.pi * u) ** 2

    _check(duration, peak_users, min_users)
    return WorkloadTrace("slowly_varying", duration, peak_users,
                         min_users, shape)


def big_spike(duration: float = 720.0, peak_users: int = 350,
              min_users: int = 60) -> WorkloadTrace:
    """A flat baseline with one short, violent spike mid-trace."""

    def shape(u: float) -> float:
        baseline = 0.35 + 0.05 * math.sin(2 * math.pi * 5.0 * u)
        spike = math.exp(-((u - 0.5) ** 2) / (2 * 0.035 ** 2))
        return baseline + (1.0 - baseline) * spike

    _check(duration, peak_users, min_users)
    return WorkloadTrace("big_spike", duration, peak_users,
                         min_users, shape)


def dual_phase(duration: float = 720.0, peak_users: int = 350,
               min_users: int = 60) -> WorkloadTrace:
    """Two plateaus: a low morning phase then a high afternoon phase."""

    def shape(u: float) -> float:
        low, high = 0.35, 0.95
        # Smooth step between phases around u = 0.45.
        blend = 1.0 / (1.0 + math.exp(-(u - 0.45) * 40.0))
        wobble = 0.05 * math.sin(2 * math.pi * 10.0 * u)
        return low + (high - low) * blend + wobble

    _check(duration, peak_users, min_users)
    return WorkloadTrace("dual_phase", duration, peak_users,
                         min_users, shape)


def steep_tri_phase(duration: float = 720.0, peak_users: int = 350,
                    min_users: int = 60) -> WorkloadTrace:
    """Three phases separated by steep ramps: low, overload, medium —
    the trace used in the paper's Fig. 10 walkthrough."""

    def shape(u: float) -> float:
        wobble = 0.04 * math.sin(2 * math.pi * 12.0 * u)
        if u < 0.30:
            base = 0.35
        elif u < 0.42:
            base = 0.35 + (1.0 - 0.35) * (u - 0.30) / 0.12
        elif u < 0.62:
            base = 1.0
        elif u < 0.72:
            base = 1.0 - (1.0 - 0.55) * (u - 0.62) / 0.10
        else:
            base = 0.55
        return base + wobble

    _check(duration, peak_users, min_users)
    return WorkloadTrace("steep_tri_phase", duration, peak_users,
                         min_users, shape)


_BUILDERS: dict[str, _t.Callable[..., WorkloadTrace]] = {
    "large_variation": large_variation,
    "quick_varying": quick_varying,
    "slowly_varying": slowly_varying,
    "big_spike": big_spike,
    "dual_phase": dual_phase,
    "steep_tri_phase": steep_tri_phase,
}


def build_trace(name: str, duration: float = 720.0, peak_users: int = 350,
                min_users: int = 60) -> WorkloadTrace:
    """Build one of the six paper traces by name."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown trace {name!r} (have: {', '.join(_BUILDERS)})"
        ) from None
    return builder(duration=duration, peak_users=peak_users,
                   min_users=min_users)


def all_traces(duration: float = 720.0, peak_users: int = 350,
               min_users: int = 60) -> list[WorkloadTrace]:
    """All six traces with shared parameters, in the paper's order."""
    return [build_trace(name, duration, peak_users, min_users)
            for name in TRACE_NAMES]
