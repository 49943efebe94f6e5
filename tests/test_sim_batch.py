"""Batch event application: one scheduler entry per homogeneous burst.

``Environment.schedule_batch`` lets N same-timestamp events ride a
single :class:`~repro.sim.events.EventBatch` entry with N consecutively
reserved serials, so the processed stream (and therefore every replay
fingerprint) is byte-identical to N individual pushes — the batching
is invisible to everything but the scheduler's workload. These tests
pin that contract and its users: ``Application.submit_batch``, the
closed-loop population step-up, pool grant storms, and the open-loop
driver's chunk-sampled pump.
"""

import numpy as np
import pytest

from repro.sim import Environment
from repro.sim.events import Event, EventBatch
from repro.validation.fingerprint import RunRecorder
from repro.validation.scenarios import scenario_by_name
from repro.workloads import OpenLoopDriver


def _flag_event(env, log, tag):
    event = Event(env)
    event.callbacks.append(lambda _e: log.append((env.now, tag)))
    event._ok = True
    event._value = None
    return event


class TestScheduleBatch:
    def test_empty_batch_is_noop(self):
        env = Environment()
        env.schedule_batch([])
        assert env.queue_depth == 0

    def test_single_event_schedules_plainly(self):
        env = Environment()
        log = []
        env.schedule_batch([_flag_event(env, log, "only")])
        env.run()
        assert log == [(0.0, "only")]

    def test_batch_preserves_submission_order(self):
        env = Environment()
        log = []
        env.schedule_batch([_flag_event(env, log, i) for i in range(8)])
        assert env.queue_depth == 1  # one entry carries all eight
        env.run()
        assert log == [(0.0, i) for i in range(8)]

    def test_monitors_see_members_with_consecutive_serials(self):
        env = Environment()
        seen = []
        env.add_monitor(lambda when, eid, event: seen.append(eid))
        env.schedule_batch([_flag_event(env, [], i) for i in range(5)])
        env.run()
        assert seen == list(range(seen[0], seen[0] + 5))

    def test_batch_reserves_serials_like_individual_pushes(self):
        """The id counter advances by N either way — bench event
        counts stay comparable across batched and unbatched runs."""
        batched = Environment()
        batched.schedule_batch([_flag_event(batched, [], i)
                                for i in range(7)])
        single = Environment()
        for i in range(7):
            single.schedule_batch([_flag_event(single, [], i)])
        assert next(batched._eid) == next(single._eid)

    def test_mid_batch_failure_requeues_tail(self):
        """An exception inside member i re-queues members i+1..N, so a
        caught error loses nothing and serials stay aligned."""
        env = Environment()
        log = []

        def boom(_event):
            raise RuntimeError("member 1 explodes")

        events = [_flag_event(env, log, 0)]
        bad = Event(env)
        bad.callbacks.append(boom)
        bad._ok = True
        bad._value = None
        events.append(bad)
        events.extend(_flag_event(env, log, i) for i in (2, 3))
        env.schedule_batch(events)
        with pytest.raises(RuntimeError):
            env.run()
        assert log == [(0.0, 0)]
        env.run()  # the re-queued tail resumes where the batch broke
        assert log == [(0.0, 0), (0.0, 2), (0.0, 3)]

    def test_eventbatch_repr_and_len(self):
        env = Environment()
        batch = EventBatch([Event(env), Event(env)])
        assert len(batch) == 2
        assert "2" in repr(batch)


def _closed_loop_digest(seed):
    env, app, driver = scenario_by_name("single_light").build(seed)
    recorder = RunRecorder(env, keep_events=False)
    driver.start()
    env.run(until=20.0)
    return recorder.finish(app).digest


class TestSubmitBatch:
    def test_unknown_type_rejected(self):
        env, app, _driver = scenario_by_name("single_light").build(3)
        with pytest.raises(KeyError):
            app.submit_batch("nope", 3)

    def test_zero_count_is_noop(self):
        env, app, _driver = scenario_by_name("single_light").build(3)
        assert app.submit_batch("go", 0) == []
        assert app.total_submitted == 0

    def test_batch_submit_equals_sequential_submits(self):
        """submit_batch(k) and k submit() calls produce byte-identical
        event streams and end-to-end latencies."""
        def run(batched):
            env, app, _driver = scenario_by_name("single_light").build(7)
            recorder = RunRecorder(env, keep_events=False)
            if batched:
                pairs = app.submit_batch("go", 12)
            else:
                pairs = [app.submit("go") for _ in range(12)]
            env.run()
            assert app.latency["go"].total == 12
            latencies = app.latency["go"].response_times()
            return (recorder.finish(app).digest, list(latencies),
                    [r.request_type for r, _p in pairs])

        assert run(batched=True) == run(batched=False)

    def test_population_stepup_rides_one_entry(self):
        """A closed-loop step-up of k users adds one scheduler entry,
        and the run fingerprints match across runs (determinism)."""
        assert _closed_loop_digest(11) == _closed_loop_digest(11)


class TestOpenLoopBatchPump:
    def _run(self, batch):
        env, app, _driver = scenario_by_name("single_light").build(13)
        recorder = RunRecorder(env, keep_events=False)
        driver = OpenLoopDriver(env, app, "go", rate=40.0,
                                rng=np.random.default_rng(99),
                                duration=10.0, batch=batch)
        driver.start()
        env.run(until=15.0)
        digest = recorder.finish(app).digest
        times, latencies = app.latency["go"].window()
        return digest, driver.submitted, list(times), list(latencies)

    def test_pump_equals_generator_path(self):
        """The chunk-sampled pump (batch>1) consumes the random stream
        exactly like the per-arrival generator path (batch=1): same
        arrival times, same submissions, same completion times and
        latencies. Only the kernel events differ (the pump schedules
        one reusable event per arrival instead of a Timeout + process
        resume), which is the entire point of the fast path."""
        _d_pump, *pump = self._run(batch=256)
        _d_gen, *gen = self._run(batch=1)
        assert pump == gen

    def test_invalid_batch_rejected(self):
        env, app, _driver = scenario_by_name("single_light").build(3)
        with pytest.raises(ValueError):
            OpenLoopDriver(env, app, "go", rate=1.0,
                           rng=np.random.default_rng(1), batch=0)

    def test_time_varying_rate_keeps_generator_path(self):
        env, app, _driver = scenario_by_name("single_light").build(5)
        driver = OpenLoopDriver(env, app, "go",
                                rate=lambda t: 20.0,
                                rng=np.random.default_rng(4),
                                duration=5.0, batch=256)
        driver.start()
        env.run(until=10.0)
        assert driver.submitted > 0
