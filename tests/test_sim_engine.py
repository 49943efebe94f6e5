"""Unit tests for the DES kernel: environment, events, processes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    Environment,
    EventAlreadyTriggered,
    Interrupt,
    SimulationError,
    UnhandledProcessError,
)
from repro.validation.fingerprint import RunRecorder


def test_clock_starts_at_initial_time():
    assert Environment().now == 0.0
    assert Environment(initial_time=12.5).now == 12.5


def test_timeout_advances_clock():
    env = Environment()
    log = []

    def proc(env):
        yield env.timeout(3.0)
        log.append(env.now)
        yield env.timeout(2.0)
        log.append(env.now)

    env.process(proc(env))
    env.run()
    assert log == [3.0, 5.0]


def test_timeout_carries_value():
    env = Environment()
    seen = []

    def proc(env):
        value = yield env.timeout(1.0, value="hello")
        seen.append(value)

    env.process(proc(env))
    env.run()
    assert seen == ["hello"]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def proc(env):
        while True:
            yield env.timeout(10.0)

    env.process(proc(env))
    env.run(until=25.0)
    assert env.now == 25.0


def test_run_until_past_raises():
    env = Environment(initial_time=10.0)
    with pytest.raises(ValueError):
        env.run(until=5.0)


def test_events_process_in_time_order():
    env = Environment()
    order = []

    def make(delay, tag):
        def proc(env):
            yield env.timeout(delay)
            order.append(tag)
        return proc

    for delay, tag in [(3, "c"), (1, "a"), (2, "b")]:
        env.process(make(delay, tag)(env))
    env.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fifo_within_priority():
    env = Environment()
    order = []

    def proc(env, tag):
        yield env.timeout(1.0)
        order.append(tag)

    for tag in ["first", "second", "third"]:
        env.process(proc(env, tag))
    env.run()
    assert order == ["first", "second", "third"]


def test_process_returns_value_to_waiter():
    env = Environment()
    results = []

    def child(env):
        yield env.timeout(2.0)
        return 42

    def parent(env):
        value = yield env.process(child(env))
        results.append((env.now, value))

    env.process(parent(env))
    env.run()
    assert results == [(2.0, 42)]


def test_run_until_event_returns_its_value():
    env = Environment()

    def child(env):
        yield env.timeout(4.0)
        return "payload"

    proc = env.process(child(env))
    assert env.run(until=proc) == "payload"
    assert env.now == 4.0


def test_event_succeed_twice_raises():
    env = Environment()
    event = env.event()
    event.succeed(1)
    with pytest.raises(EventAlreadyTriggered):
        event.succeed(2)


def test_event_fail_requires_exception():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")


def test_failed_event_raises_in_waiting_process():
    env = Environment()
    caught = []

    def proc(env):
        event = env.event()
        env.call_at(1.0, lambda: event.fail(ValueError("boom")))
        try:
            yield event
        except ValueError as exc:
            caught.append(str(exc))

    env.process(proc(env))
    env.run()
    assert caught == ["boom"]


def test_crashing_process_without_waiter_raises_unhandled():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        raise RuntimeError("crash")

    env.process(proc(env))
    with pytest.raises(UnhandledProcessError):
        env.run()


def test_crashing_process_with_waiter_propagates_to_waiter():
    env = Environment()
    caught = []

    def child(env):
        yield env.timeout(1.0)
        raise RuntimeError("child crash")

    def parent(env):
        try:
            yield env.process(child(env))
        except RuntimeError as exc:
            caught.append(str(exc))

    env.process(parent(env))
    env.run()
    assert caught == ["child crash"]


def test_yield_non_event_raises():
    env = Environment()

    def proc(env):
        yield 42

    env.process(proc(env))
    with pytest.raises(SimulationError):
        env.run()


def test_interrupt_waiting_process():
    env = Environment()
    log = []

    def sleeper(env):
        try:
            yield env.timeout(100.0)
            log.append("finished")
        except Interrupt as interrupt:
            log.append(("interrupted", env.now, interrupt.cause))

    def interrupter(env, victim):
        yield env.timeout(5.0)
        victim.interrupt(cause="state change")

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert log == [("interrupted", 5.0, "state change")]


def test_interrupt_dead_process_raises():
    env = Environment()

    def quick(env):
        yield env.timeout(1.0)

    proc = env.process(quick(env))
    env.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_all_of_waits_for_every_event():
    env = Environment()
    done = []

    def proc(env):
        events = [env.timeout(d, value=d) for d in (1.0, 3.0, 2.0)]
        results = yield env.all_of(events)
        done.append((env.now, sorted(results.values())))

    env.process(proc(env))
    env.run()
    assert done == [(3.0, [1.0, 2.0, 3.0])]


def test_any_of_fires_on_first_event():
    env = Environment()
    done = []

    def proc(env):
        events = [env.timeout(d, value=d) for d in (5.0, 2.0, 9.0)]
        results = yield env.any_of(events)
        done.append((env.now, list(results.values())))

    env.process(proc(env))
    env.run()
    assert done == [(2.0, [2.0])]


def test_call_at_runs_callback_at_absolute_time():
    env = Environment()
    hits = []
    env.call_at(7.5, lambda: hits.append(env.now))
    env.run()
    assert hits == [7.5]


def test_call_at_past_raises():
    env = Environment(initial_time=3.0)
    with pytest.raises(ValueError):
        env.call_at(1.0, lambda: None)


def test_active_process_identity():
    env = Environment()
    seen = []

    def proc(env):
        seen.append(env.active_process)
        yield env.timeout(1.0)
        seen.append(env.active_process)

    handle = env.process(proc(env))
    env.run()
    assert seen == [handle, handle]
    assert env.active_process is None


def test_nested_processes_three_deep():
    env = Environment()

    def leaf(env):
        yield env.timeout(1.0)
        return 1

    def middle(env):
        value = yield env.process(leaf(env))
        yield env.timeout(1.0)
        return value + 1

    def root(env):
        value = yield env.process(middle(env))
        return value + 1

    proc = env.process(root(env))
    assert env.run(until=proc) == 3
    assert env.now == 2.0


def test_waiting_on_already_processed_event():
    env = Environment()
    results = []

    def proc(env):
        event = env.event()
        event.succeed("early")
        yield env.timeout(1.0)  # let the event process first
        value = yield event     # now it is already processed
        results.append(value)

    env.process(proc(env))
    env.run()
    assert results == ["early"]


def _run_script(script) -> tuple[str, int, list[float]]:
    """Interpret a random script of timeouts, spawns, interrupts and
    far-future hops; return the run's digest, event count, and the
    ``when`` of every processed event in order."""
    env = Environment()
    recorder = RunRecorder(env, keep_events=False)
    whens: list[float] = []
    env.add_monitor(lambda when, _seq, _event: whens.append(when))
    spawned = []

    def worker(delays):
        try:
            for delay in delays:
                yield env.timeout(delay)
        except BaseException:
            # Interrupted mid-wait: die quietly. The cancellation
            # itself (remove_callback on the pending Timeout, the path
            # Quorum / Hedge / timeouts all share) is what is under test.
            return

    def spawner():
        for delay, kind in script:
            if kind == 0:
                yield env.timeout(delay)
            elif kind == 1:
                spawned.append(env.process(
                    worker([delay, delay / 2, delay * 3])))
            elif kind == 2 and spawned:
                victim = spawned.pop()
                # Only interrupt processes that have started (are
                # waiting on a target): interrupting before bootstrap
                # double-resumes — a documented Process.interrupt
                # precondition.
                if victim.is_alive and victim._target is not None:
                    victim.interrupt("cancelled")
                yield env.timeout(delay / 7)
            else:
                # Far-future hop: must interleave correctly with the
                # near entries still pending.
                yield env.timeout(delay * 1000.0)

    env.process(spawner())
    env.run()
    return recorder.finish().digest, recorder.n_events, whens


@given(script=st.lists(
    st.tuples(
        st.floats(min_value=1e-6, max_value=50.0,
                  allow_nan=False, allow_infinity=False),
        st.integers(min_value=0, max_value=3)),
    min_size=1, max_size=30))
@settings(max_examples=60, deadline=None)
def test_cancellation_heavy_scripts_replay_in_time_order(script):
    digest, n_events, whens = _run_script(script)
    again_digest, again_events, _ = _run_script(script)
    assert (again_digest, again_events) == (digest, n_events)
    assert whens == sorted(whens)
