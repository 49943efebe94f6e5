"""Edge-case tests for kernel, resources, and metrics internals."""

import pytest

from repro.app.service import Microservice
from repro.resources import ProcessorSharingCpu, SoftResourcePool
from repro.sim import NORMAL, URGENT, Environment, RandomStreams
from repro.sim.events import Condition


class TestEnginePriorities:
    def test_urgent_processes_before_normal_at_same_time(self):
        env = Environment()
        order = []
        event_normal = env.event()
        event_urgent = env.event()
        event_normal.add_callback(lambda e: order.append("normal"))
        event_urgent.add_callback(lambda e: order.append("urgent"))
        event_normal._ok = True
        event_normal._value = None
        event_urgent._ok = True
        event_urgent._value = None
        env.schedule(event_normal, delay=1.0, priority=NORMAL)
        env.schedule(event_urgent, delay=1.0, priority=URGENT)
        env.run()
        assert order == ["urgent", "normal"]

    def test_peek_empty_heap(self):
        assert Environment().peek() == float("inf")

    def test_peek_returns_next_time(self):
        env = Environment()
        env.timeout(5.0)
        assert env.peek() == 5.0

    def test_run_until_event_that_never_fires(self):
        env = Environment()
        never = env.event()

        def proc(env):
            yield env.timeout(1.0)

        env.process(proc(env))
        with pytest.raises(RuntimeError):
            env.run(until=never)

    def test_schedule_negative_delay_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            env.schedule(env.event(), delay=-1.0)

    def test_condition_mixed_environments_rejected(self):
        env_a, env_b = Environment(), Environment()
        with pytest.raises(ValueError):
            Condition(env_a, [env_a.event(), env_b.event()], needed=2)

    def test_empty_all_of_succeeds_immediately(self):
        env = Environment()
        condition = env.all_of([])
        assert condition.triggered

    def test_interrupt_cause_carried(self):
        from repro.sim import Interrupt
        env = Environment()
        seen = {}

        def victim(env):
            try:
                yield env.timeout(100.0)
            except Interrupt as interrupt:
                seen["cause"] = interrupt.cause

        proc = env.process(victim(env))

        def killer(env):
            yield env.timeout(1.0)
            proc.interrupt(cause={"reason": "test"})

        env.process(killer(env))
        env.run()
        assert seen["cause"] == {"reason": "test"}


class TestCpuEdgeCases:
    def test_set_overhead_at_runtime(self):
        env = Environment()
        cpu = ProcessorSharingCpu(env, cores=1, overhead=0.0)
        done = []

        def jobs(env):
            a = cpu.submit(1.0)
            b = cpu.submit(1.0)
            yield env.all_of([a, b])
            done.append(env.now)

        def tweak(env):
            yield env.timeout(1.0)
            cpu.set_overhead(1.0)  # halves effective rate (n=2, c=1)

        env.process(jobs(env))
        env.process(tweak(env))
        env.run()
        # Without overhead both finish at t=2; the mid-flight overhead
        # change must push completion later.
        assert done[0] > 2.0

    def test_set_overhead_negative_rejected(self):
        env = Environment()
        cpu = ProcessorSharingCpu(env, cores=1)
        with pytest.raises(ValueError):
            cpu.set_overhead(-0.5)

    def test_fractional_cores(self):
        env = Environment()
        cpu = ProcessorSharingCpu(env, cores=0.5)
        finished = []

        def job(env):
            yield cpu.submit(1.0)
            finished.append(env.now)

        env.process(job(env))
        env.run()
        assert finished[0] == pytest.approx(2.0)  # half-speed core


class TestPoolEdgeCases:
    def test_mean_in_use_with_duration(self):
        env = Environment()
        pool = SoftResourcePool(env, capacity=2)

        def holder(env):
            yield pool.acquire()
            yield env.timeout(4.0)
            pool.release()

        env.process(holder(env))
        env.run(until=8.0)
        assert pool.mean_in_use(duration=8.0) == pytest.approx(0.5)

    def test_resize_invalid(self):
        env = Environment()
        pool = SoftResourcePool(env, capacity=2)
        with pytest.raises(ValueError):
            pool.resize(0)

    def test_available_never_negative_after_shrink(self):
        env = Environment()
        pool = SoftResourcePool(env, capacity=3)
        for _ in range(3):
            pool.acquire()
        pool.resize(1)
        assert pool.available == 0


class TestServiceMetricsEdgeCases:
    @staticmethod
    def metrics():
        return Microservice(Environment(), "svc",
                            RandomStreams(1).stream("x")).metrics

    def test_out_of_order_departure_raises(self):
        # Departures are stamped with the simulation clock, so a late
        # one is a bug in the caller, not a row to sort in.
        metrics = self.metrics()
        metrics.append(5.0, 0.1, 0.1)
        with pytest.raises(ValueError):
            metrics.append(3.0, 0.2, 0.2)
        metrics.append(7.0, 0.3, 0.25)
        times, residence, processing = metrics.window()
        assert times.tolist() == [5.0, 7.0]
        assert residence.tolist() == [0.1, 0.3]
        assert processing.tolist() == [0.1, 0.25]
        assert metrics.total == 2

    def test_goodput_empty_window(self):
        metrics = self.metrics()
        for window in (metrics.window(0.0, 10.0), metrics.window(5.0, 5.0)):
            assert len(window) == 3
            assert all(column.size == 0 for column in window)
