"""The discrete-event simulation environment (event loop).

:class:`Environment` owns the simulated clock and the event heap. All
other kernel objects (events, timeouts, processes) are created through
its factory methods so user code rarely imports anything else::

    env = Environment()
    env.process(my_generator(env))
    env.run(until=600.0)
"""

from __future__ import annotations

import heapq
import typing as _t
from itertools import count

from repro.sim.errors import StopSimulation, UnhandledProcessError
from repro.sim.events import (Condition, Event, EventBatch, Timeout,
                              all_of, any_of)
from repro.sim.process import Process, ProcessGenerator

#: Scheduling priorities: URGENT events process before NORMAL ones that
#: share the same timestamp (used for bookkeeping that must observe state
#: before user processes run).
URGENT = 0
NORMAL = 1


#: A step monitor receives ``(when, sequence, event)`` just before the
#: event's callbacks run. Monitors must not mutate simulation state.
StepMonitor = _t.Callable[[float, int, "Event"], None]


class Environment:
    """Execution environment for a single simulation run.

    Pending events live in one global binary heap keyed by ``(when,
    priority, serial)``, so ties at one timestamp resolve by priority
    and then by scheduling order — the total order every replay
    fingerprint and golden snapshot is built on.

    Args:
        initial_time: starting value of the simulated clock.
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._heap: list[tuple[float, int, int, Event]] = []
        self._eid = count()
        self._span_ids = count(1)
        self._active_process: Process | None = None
        self._monitors: list[StepMonitor] = []

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Process | None:
        """The process currently being stepped, if any."""
        return self._active_process

    @property
    def queue_depth(self) -> int:
        """Scheduled-but-unprocessed entries currently queued
        (observability probe: the telemetry pump records it as the
        ``sim.queue_depth`` series). A batch scheduled via
        :meth:`schedule_batch` counts as one entry."""
        return len(self._heap)

    @property
    def events_scheduled(self) -> int:
        """Events scheduled so far: the scheduling serial counter.

        Reading it does not consume a serial, so the next event keeps
        the serial it would have had. Read it between runs.
        """
        scheduled = next(self._eid)
        self._eid = count(scheduled)
        return scheduled

    def next_span_id(self) -> int:
        """Allocate the next tracing span id for this run.

        Ids are scoped to the environment (starting at 1), so two
        identically seeded runs — even in the same process — produce
        identical span ids (see :mod:`repro.tracing.span`).
        """
        return next(self._span_ids)

    # ------------------------------------------------------------------
    # Event factories
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: object = None) -> Timeout:
        """An event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator,
                name: str | None = None) -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: _t.Sequence[Event]) -> Condition:
        """Condition satisfied once all ``events`` succeed."""
        return all_of(self, events)

    def any_of(self, events: _t.Sequence[Event]) -> Condition:
        """Condition satisfied once any of ``events`` succeeds."""
        return any_of(self, events)

    # ------------------------------------------------------------------
    # Scheduling / stepping
    # ------------------------------------------------------------------
    def schedule(self, event: Event, delay: float = 0.0,
                 priority: int = NORMAL) -> None:
        """Put a triggered event onto the heap ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        heapq.heappush(
            self._heap, (self._now + delay, priority, next(self._eid), event))

    def call_at(self, when: float, callback: _t.Callable[[], None],
                priority: int = NORMAL) -> Event:
        """Run ``callback()`` at absolute simulated time ``when``.

        Returns the underlying event; the callback can be descheduled by
        simply ignoring the event (see lazy invalidation in
        :mod:`repro.resources.cpu`).
        """
        if when < self._now:
            raise ValueError(f"call_at({when}) is in the past (now={self._now})")
        event = Event(self)
        event.callbacks.append(lambda _e: callback())
        event._ok = True
        event._value = None
        heapq.heappush(self._heap, (when, priority, next(self._eid), event))
        return event

    def schedule_batch(self, events: _t.Sequence[Event],
                       priority: int = NORMAL) -> None:
        """Schedule a burst of *already-triggered* events at the current
        time as one scheduler entry.

        Every event must have its value set (``_value``/``_ok``) but not
        yet be scheduled — this is the batch analogue of the inlined
        ``succeed()`` push. The batch reserves consecutive event serials
        and the run loop applies members in order, so monitors and
        replay fingerprints observe exactly the stream that ``k``
        individual pushes would have produced.
        """
        n = len(events)
        if n == 0:
            return
        eid = self._eid
        if n == 1:
            heapq.heappush(self._heap,
                           (self._now, priority, next(eid), events[0]))
            return
        first = next(eid)
        for _ in range(n - 1):  # reserve consecutive serials for members
            next(eid)
        heapq.heappush(
            self._heap,
            (self._now, priority, first,
             _t.cast(Event, EventBatch(events))))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._heap[0][0] if self._heap else float("inf")

    def add_monitor(self, monitor: StepMonitor) -> None:
        """Observe every event the loop processes (validation hooks).

        Monitors are invoked *before* the event's callbacks with
        ``(when, sequence, event)`` where ``sequence`` is the event's
        scheduling serial — a deterministic, replayable step identity.
        They are read-only observers: raising from one aborts the run
        (this is how invariant checkers fail fast).
        """
        self._monitors.append(monitor)

    def remove_monitor(self, monitor: StepMonitor) -> None:
        """Detach a previously added monitor (no-op if absent)."""
        if monitor in self._monitors:
            self._monitors.remove(monitor)

    def step(self) -> None:
        """Process the single next event (one batch counts as one step)."""
        when, prio, eid, event = heapq.heappop(self._heap)
        self._now = when
        if event.__class__ is EventBatch:
            self._apply_batch(when, prio, eid,
                              _t.cast(EventBatch, event))
            return
        if self._monitors:
            for monitor in self._monitors:
                monitor(when, eid, event)
        callbacks = event.callbacks
        event.callbacks = None
        assert callbacks is not None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event.defused:
            cause = _t.cast(BaseException, event._value)
            error = UnhandledProcessError(
                f"unhandled failure in simulation at t={when:.6f}: {cause!r}")
            raise error from cause

    def _apply_batch(self, when: float, priority: int, first_eid: int,
                     batch: EventBatch) -> None:
        """Apply a batch's members in order, as if pushed individually.

        Members carry the consecutive serials reserved at scheduling
        time. If a callback aborts the run mid-batch (``StopSimulation``
        or an unhandled failure), the unprocessed tail is re-queued
        under its original serials so a later ``run()`` resumes exactly
        where the stream stopped.
        """
        events = batch.events
        monitors = self._monitors
        index = 0
        try:
            for index, event in enumerate(events):
                if monitors:
                    eid = first_eid + index
                    for monitor in monitors:
                        monitor(when, eid, event)
                callbacks = event.callbacks
                event.callbacks = None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event.defused:
                    cause = _t.cast(BaseException, event._value)
                    error = UnhandledProcessError(
                        f"unhandled failure in simulation at "
                        f"t={when:.6f}: {cause!r}")
                    raise error from cause
        except BaseException:
            rest = events[index + 1:]
            if len(rest) == 1:
                heapq.heappush(self._heap,
                               (when, priority, first_eid + index + 1,
                                rest[0]))
            elif rest:
                heapq.heappush(
                    self._heap,
                    (when, priority, first_eid + index + 1,
                     _t.cast(Event, EventBatch(rest))))
            raise

    def _run_loop(self, horizon: float) -> None:
        """The hot loop: :meth:`step` inlined with everything bound to
        locals.

        Identical semantics and event ordering to calling ``step()`` in
        a loop — the inlining only removes per-event attribute lookups
        and method-call overhead, which dominate the cost of a
        timeout-schedule-fire cycle. ``self._monitors`` is bound once
        (add/remove mutate the list in place, so mid-run changes are
        still honored) and ``self._heap`` is never rebound elsewhere.
        """
        heap = self._heap
        pop = heapq.heappop
        monitors = self._monitors
        batch_cls = EventBatch
        while heap and heap[0][0] <= horizon:
            when, prio, eid, event = pop(heap)
            self._now = when
            if event.__class__ is batch_cls:
                self._apply_batch(when, prio, eid,
                                  _t.cast(EventBatch, event))
                continue
            if monitors:
                for monitor in monitors:
                    monitor(when, eid, event)
            callbacks = event.callbacks
            event.callbacks = None
            for callback in callbacks:
                callback(event)
            if not event._ok and not event.defused:
                cause = _t.cast(BaseException, event._value)
                error = UnhandledProcessError(
                    f"unhandled failure in simulation at t={when:.6f}: "
                    f"{cause!r}")
                raise error from cause

    def run(self, until: float | Event | None = None) -> object:
        """Run the event loop.

        Args:
            until: stop criterion — an absolute time, an event (stop when it
                triggers, returning its value), or ``None`` to exhaust all
                events.

        Returns:
            The value of ``until`` when it is an event, else ``None``.
        """
        stop_event: Event | None = None
        horizon = float("inf")
        if isinstance(until, Event):
            stop_event = until
            if stop_event.processed:
                return stop_event.value
            stop_event.add_callback(self._stop_callback)
        elif until is not None:
            horizon = float(until)
            if horizon < self._now:
                raise ValueError(
                    f"until={horizon} is in the past (now={self._now})")

        try:
            self._run_loop(horizon)
        except StopSimulation:
            pass

        if stop_event is not None:
            if stop_event.processed:
                if not stop_event.ok:
                    raise _t.cast(BaseException, stop_event.value)
                return stop_event.value
            raise RuntimeError(
                "run() ran out of events before the stop event triggered")
        if horizon != float("inf"):
            self._now = horizon
        return None

    @staticmethod
    def _stop_callback(_event: Event) -> None:
        raise StopSimulation
