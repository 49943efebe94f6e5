"""Fine-grained online samplers.

The SCG/SCT models consume ``<concurrency, goodput>`` pairs sampled at a
fixed interval (100 ms by default, §3.2 / Table 1). The samplers here
are simulation processes that poll live objects into a
:class:`TimeSeries`, the in-order time log every simulator record
(completions, response times, samples) is kept in.
"""

from __future__ import annotations

import bisect
import logging
import math
import typing as _t
from array import array

import numpy as np

from repro.sim.engine import Environment

if _t.TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.obs import Observability

logger = logging.getLogger(__name__)


class TimeSeries:
    """An in-order time log: one time column plus ``width`` value columns.

    Every in-order record of the simulator is one of these: a service's
    completions, an application's end-to-end response times, a
    sampler's ticks, a monitor's CPU readings. Rows are stored at 8
    bytes per value in two ``array('d')`` buffers, the times and the
    values interleaved row by row, so an append is a few C calls and no
    boxed float outlives it. :meth:`window` binary-searches the time
    column and returns fresh arrays, so later appends and prunes never
    disturb a window already handed out.

    Args:
        width: number of value columns in each row.
    """

    __slots__ = ("width", "_times", "_values", "_last", "_pruned")

    def __init__(self, width: int) -> None:
        self.width = width
        self._times = array("d")
        self._values = array("d")
        self._last = -math.inf
        self._pruned = 0

    def append(self, time: float, *values: float) -> None:
        """Record one row of ``width`` values at ``time`` (times must be
        non-decreasing; a rejected row leaves the log unchanged)."""
        if time < self._last or len(values) != self.width:
            raise ValueError(
                f"row of {len(values)} values at time {time} does not "
                f"follow the last row (time {self._last}, "
                f"{self.width} values)")
        self._last = time
        self._times.append(time)
        self._values.extend(values)

    def window(self, since: float = 0.0, until: float = math.inf
               ) -> tuple[np.ndarray, ...]:
        """``(times, column_1, ..., column_width)`` of the rows with
        ``since <= time < until``."""
        times = self._times
        lo = bisect.bisect_left(times, since)
        hi = bisect.bisect_left(times, until, lo)
        width = self.width
        columns = np.ascontiguousarray(np.frombuffer(
            self._values[lo * width:hi * width]).reshape(-1, width).T)
        return (np.frombuffer(times[lo:hi]), *columns)

    def prune(self, before: float) -> None:
        """Drop rows older than ``before``."""
        cut = bisect.bisect_left(self._times, before)
        if cut:
            del self._times[:cut]
            del self._values[:cut * self.width]
            self._pruned += cut

    @property
    def total(self) -> int:
        """Rows ever appended, pruned ones included."""
        return self._pruned + len(self._times)

    def __len__(self) -> int:
        return len(self._times)


class IntervalSampler:
    """Polls a callable every ``interval`` seconds into a TimeSeries.

    Args:
        env: simulation environment.
        probe: zero-argument callable returning the current value.
        interval: sampling period in seconds.
        name: label for debugging.
    """

    def __init__(self, env: Environment, probe: _t.Callable[[], float],
                 interval: float = 0.1, name: str = "sampler") -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.env = env
        self.probe = probe
        self.interval = interval
        self.name = name
        self.series = TimeSeries(1)
        self._running = False

    def start(self) -> None:
        """Begin sampling (idempotent)."""
        if self._running:
            return
        self._running = True
        self.env.process(self._loop(), name=f"sampler:{self.name}")

    def stop(self) -> None:
        """Stop sampling after the current tick."""
        self._running = False

    def _loop(self):
        while self._running:
            self.series.append(self.env.now, float(self.probe()))
            yield self.env.timeout(self.interval)


class ConcurrencyGoodputSampler:
    """Samples ``<Q_n, GP_n>`` pairs at a fixed granularity (§3.2).

    Every tick it records the *mean* concurrency ``Q`` of the monitored
    soft resource over the elapsed interval (by differencing a
    cumulative concurrency-seconds integral) and the goodput ``GP`` over
    the same interval — completions whose residence time met the
    (possibly time-varying) response-time threshold, as a rate in
    requests/second. The threshold provider makes the same sampler serve
    both the SCG model (propagated deadline) and the SCT baseline
    (``inf``: goodput degenerates to throughput).

    Args:
        env: simulation environment.
        concurrency_integral: returns cumulative concurrency-seconds up
            to now; the sampler differences consecutive readings.
        completion_source: ``(since, until) -> np.ndarray`` of residence
            times for completions in the window (e.g. the first value
            column of a service's completion log).
        threshold_provider: returns the current RT threshold in seconds.
        interval: sampling granularity (default 100 ms).
        obs: observability scope for tick counters (``None`` disables;
            the per-tick cost of an enabled scope is one truthiness
            check plus a counter increment).
    """

    def __init__(self, env: Environment,
                 concurrency_integral: _t.Callable[[], float],
                 completion_source: _t.Callable[[float, float], np.ndarray],
                 threshold_provider: _t.Callable[[], float],
                 interval: float = 0.1, name: str = "scg-sampler",
                 obs: "Observability | None" = None) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.env = env
        self.concurrency_integral = concurrency_integral
        self.completion_source = completion_source
        self.threshold_provider = threshold_provider
        self.interval = interval
        self.name = name
        self.obs = obs
        #: One row per tick: (concurrency, goodput, throughput).
        self.series = TimeSeries(3)
        self._running = False

    def start(self) -> None:
        """Begin sampling (idempotent)."""
        if self._running:
            return
        self._running = True
        self.env.process(self._loop(), name=f"sampler:{self.name}")

    def stop(self) -> None:
        """Stop sampling after the current tick."""
        self._running = False

    def pairs(self, since: float = 0.0, until: float = float("inf"),
              use_threshold: bool = True
              ) -> tuple[np.ndarray, np.ndarray]:
        """``(Q, GP)`` sample pairs in the window (or ``(Q, TP)`` when
        ``use_threshold`` is false)."""
        _times, concurrency, goodput, throughput = self.series.window(
            since, until)
        return concurrency, goodput if use_threshold else throughput

    def prune(self, before: float) -> None:
        """Drop samples older than ``before``."""
        self.series.prune(before)

    def _loop(self):
        last = self.env.now
        last_integral = float(self.concurrency_integral())
        obs = self.obs
        counter = (obs.registry.counter("sampler.ticks")
                   if obs else None)
        while self._running:
            yield self.env.timeout(self.interval)
            now = self.env.now
            elapsed = now - last
            if elapsed <= 0.0:
                # A zero-length interval carries no rate information
                # (can only arise from same-timestamp wakeups); skip
                # rather than divide by zero.
                logger.warning("%s: zero-length sampling interval at "
                               "t=%.6f; tick skipped", self.name, now)
                continue
            latencies = np.asarray(self.completion_source(last, now))
            threshold = self.threshold_provider()
            good = float(np.count_nonzero(latencies <= threshold))
            total = float(latencies.size)
            integral = float(self.concurrency_integral())
            self.series.append(now, (integral - last_integral) / elapsed,
                               good / elapsed, total / elapsed)
            last = now
            last_integral = integral
            if counter is not None:
                counter.inc()
