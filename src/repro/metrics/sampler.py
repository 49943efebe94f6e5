"""Fine-grained online samplers.

The SCG/SCT models consume ``<concurrency, goodput>`` pairs sampled at a
fixed interval (100 ms by default, §3.2 / Table 1). The samplers here
are simulation processes that poll live objects and keep a bounded
time-indexed record that window queries slice efficiently.
"""

from __future__ import annotations

import logging
import typing as _t

import numpy as np

from repro.sim.engine import Environment

if _t.TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.obs import Observability

logger = logging.getLogger(__name__)


class TimeSeries:
    """An append-only time series with window slicing.

    Samples live in preallocated numpy buffers (doubled on overflow), so
    :meth:`window` is a pair of ``searchsorted`` calls plus two O(1)
    array views — no per-query list-to-array conversion. Pruning
    advances a start offset without moving data, which keeps previously
    returned views valid; dead space is reclaimed at the next growth.
    """

    __slots__ = ("_times", "_values", "_start", "_end")

    def __init__(self, capacity: int = 256) -> None:
        self._times = np.empty(capacity, dtype=np.float64)
        self._values = np.empty(capacity, dtype=np.float64)
        self._start = 0  # first live sample
        self._end = 0    # one past the last live sample

    def append(self, time: float, value: float) -> None:
        """Record one observation (times must be non-decreasing)."""
        end = self._end
        if end > self._start and time < self._times[end - 1]:
            raise ValueError(
                f"time {time} precedes last sample {self._times[end - 1]}")
        if end == self._times.shape[0]:
            self._grow()
            end = self._end
        self._times[end] = time
        self._values[end] = value
        self._end = end + 1

    def _grow(self) -> None:
        """Move live samples into fresh buffers at least twice their
        size (fresh, never shifted in place, so outstanding views from
        :meth:`window` keep their data)."""
        live = self._end - self._start
        capacity = max(256, 2 * live)
        times = np.empty(capacity, dtype=np.float64)
        values = np.empty(capacity, dtype=np.float64)
        times[:live] = self._times[self._start:self._end]
        values[:live] = self._values[self._start:self._end]
        self._times, self._values = times, values
        self._start, self._end = 0, live

    def window(self, since: float = 0.0, until: float = float("inf")
               ) -> tuple[np.ndarray, np.ndarray]:
        """``(times, values)`` with ``since <= t < until`` (read-only
        views onto the live buffer)."""
        times = self._times
        lo = int(np.searchsorted(times[self._start:self._end], since,
                                 side="left")) + self._start
        hi = int(np.searchsorted(times[self._start:self._end], until,
                                 side="left")) + self._start
        return times[lo:hi], self._values[lo:hi]

    def latest(self) -> tuple[float, float]:
        """The most recent ``(time, value)``."""
        if self._end == self._start:
            raise ValueError("empty time series")
        return (float(self._times[self._end - 1]),
                float(self._values[self._end - 1]))

    def prune(self, before: float) -> None:
        """Drop samples older than ``before``."""
        self._start += int(np.searchsorted(
            self._times[self._start:self._end], before, side="left"))

    def __len__(self) -> int:
        return self._end - self._start


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
        self.series = TimeSeries()
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
            times for completions in the window (e.g. a closure over
            :meth:`ServiceMetrics.completions`).
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
        self.concurrency = TimeSeries()
        self.goodput = TimeSeries()
        self.throughput = TimeSeries()
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
        _t1, concurrency = self.concurrency.window(since, until)
        output = self.goodput if use_threshold else self.throughput
        _t2, rates = output.window(since, until)
        size = min(len(concurrency), len(rates))
        return concurrency[:size], rates[:size]

    def prune(self, before: float) -> None:
        """Drop samples older than ``before``."""
        self.concurrency.prune(before)
        self.goodput.prune(before)
        self.throughput.prune(before)

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
            self.concurrency.append(
                now, (integral - last_integral) / elapsed)
            self.goodput.append(now, good / elapsed)
            self.throughput.append(now, total / elapsed)
            last = now
            last_integral = integral
            if counter is not None:
                counter.inc()
