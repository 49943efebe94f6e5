"""Tests for samplers, latency summaries, goodput split, and MAPE."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import (
    ConcurrencyGoodputSampler,
    GoodputSplit,
    IntervalSampler,
    LatencySummary,
    TimeSeries,
    bucketed_percentile,
    bucketed_rate,
    goodput_split,
    mape,
    response_time_histogram,
)
from repro.sim import Environment


class TestTimeSeries:
    def test_append_and_window(self):
        series = TimeSeries(1)
        for t in [1.0, 2.0, 3.0]:
            series.append(t, t * 10)
        times, values = series.window(1.5, 3.0)
        assert list(times) == [2.0]
        assert list(values) == [20.0]

    def test_append_out_of_order_rejected(self):
        series = TimeSeries(1)
        series.append(2.0, 1.0)
        with pytest.raises(ValueError):
            series.append(1.0, 1.0)

    def test_prune(self):
        series = TimeSeries(1)
        for t in [1.0, 2.0, 3.0]:
            series.append(t, t)
        series.prune(2.5)
        assert len(series) == 1

    def test_row_of_the_wrong_width_rejected(self):
        series = TimeSeries(2)
        with pytest.raises(ValueError):
            series.append(1.0, 1.0)
        with pytest.raises(ValueError):
            series.append(1.0, 1.0, 2.0, 3.0)
        assert len(series) == series.total == 0


_TIMES = st.integers(0, 12).map(lambda tick: tick * 0.5)
_OPERATIONS = st.lists(st.one_of(
    st.tuples(st.just("append"), _TIMES),
    st.tuples(st.just("prune"), _TIMES),
    st.tuples(st.just("window"), _TIMES, _TIMES)), max_size=60)


@settings(max_examples=200, deadline=None)
@given(width=st.integers(1, 3), operations=_OPERATIONS)
def test_time_series_matches_a_list_of_rows(width, operations):
    """Every window equals a brute-force filter of a plain list of the
    live rows; ``len`` counts live rows and ``total`` every append; an
    earlier time raises and leaves the log unchanged."""
    series = TimeSeries(width)
    rows: list[tuple[float, ...]] = []
    appended = 0
    last = -np.inf
    for step, (kind, *args) in enumerate(operations):
        if kind == "append":
            time = args[0]
            row = (time, *(step * 10.0 + column
                           for column in range(width)))
            if time < last:
                before = series.window(-np.inf)
                with pytest.raises(ValueError):
                    series.append(*row)
                for kept, now in zip(before, series.window(-np.inf)):
                    np.testing.assert_array_equal(kept, now)
            else:
                series.append(*row)
                rows.append(row)
                appended += 1
                last = time
        elif kind == "prune":
            series.prune(args[0])
            rows = [row for row in rows if row[0] >= args[0]]
        else:
            since, until = args
            window = series.window(since, until)
            expected = [row for row in rows if since <= row[0] < until]
            assert len(window) == width + 1
            for column, got in enumerate(window):
                assert got.tolist() == [row[column] for row in expected]
        assert len(series) == len(rows)
        assert series.total == appended


class TestIntervalSampler:
    def test_samples_at_interval(self):
        env = Environment()
        counter = {"n": 0}

        def probe():
            counter["n"] += 1
            return counter["n"]

        sampler = IntervalSampler(env, probe, interval=1.0)
        sampler.start()
        env.run(until=5.5)
        times, values = sampler.series.window()
        assert list(times) == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        assert list(values) == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]

    def test_stop_halts_sampling(self):
        env = Environment()
        sampler = IntervalSampler(env, lambda: 1.0, interval=1.0)
        sampler.start()

        def stopper(env):
            yield env.timeout(2.5)
            sampler.stop()

        env.process(stopper(env))
        env.run(until=10.0)
        assert len(sampler.series) == 3  # t=0,1,2

    def test_start_is_idempotent(self):
        env = Environment()
        sampler = IntervalSampler(env, lambda: 1.0, interval=1.0)
        sampler.start()
        sampler.start()
        env.run(until=2.5)
        assert len(sampler.series) == 3

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            IntervalSampler(Environment(), lambda: 0.0, interval=0.0)


class TestConcurrencyGoodputSampler:
    def make_sampler(self, env, completions, threshold=0.1):
        """completions: list of (time, latency) tuples. The concurrency
        integral grows at 4 token-seconds per second -> mean Q of 4."""
        def source(since, until):
            return np.asarray([lat for t, lat in completions
                               if since <= t < until])

        return ConcurrencyGoodputSampler(
            env, concurrency_integral=lambda: 4.0 * env.now,
            completion_source=source,
            threshold_provider=lambda: threshold,
            interval=1.0)

    def test_goodput_counts_only_within_threshold(self):
        env = Environment()
        completions = [(0.2, 0.05), (0.4, 0.5), (0.6, 0.09)]
        sampler = self.make_sampler(env, completions, threshold=0.1)
        sampler.start()
        env.run(until=1.5)
        _q, gp = sampler.pairs()
        _q2, tp = sampler.pairs(use_threshold=False)
        assert gp[0] == pytest.approx(2.0)  # 2 good / 1s
        assert tp[0] == pytest.approx(3.0)  # 3 total / 1s

    def test_concurrency_recorded(self):
        env = Environment()
        sampler = self.make_sampler(env, [])
        sampler.start()
        env.run(until=2.5)
        q, gp = sampler.pairs()
        assert list(q) == [4.0, 4.0]
        assert list(gp) == [0.0, 0.0]

    def test_prune(self):
        env = Environment()
        sampler = self.make_sampler(env, [])
        sampler.start()
        env.run(until=5.5)
        sampler.prune(3.0)
        q, _gp = sampler.pairs()
        assert len(q) == 3  # samples at t=3,4,5


class TestLatencySummary:
    def test_empty(self):
        summary = LatencySummary.from_values([])
        assert summary.count == 0
        assert summary.p99 == 0.0

    def test_percentiles(self):
        values = np.arange(1, 101, dtype=float)
        summary = LatencySummary.from_values(values)
        assert summary.count == 100
        assert summary.mean == pytest.approx(50.5)
        assert summary.p50 == pytest.approx(50.5)
        assert summary.p99 == pytest.approx(99.01)
        assert summary.maximum == 100.0

    def test_scaled(self):
        summary = LatencySummary.from_values([0.1, 0.2]).scaled(1000)
        assert summary.mean == pytest.approx(150.0)
        assert summary.count == 2


class TestGoodputSplit:
    def test_split(self):
        split = goodput_split([0.1, 0.2, 0.3, 0.4], threshold=0.25,
                              duration=2.0)
        assert split.goodput == pytest.approx(1.0)
        assert split.badput == pytest.approx(1.0)
        assert split.throughput == pytest.approx(2.0)

    def test_zero_duration_rejected(self):
        with pytest.raises(ValueError):
            goodput_split([0.1], threshold=0.2, duration=0.0)

    def test_empty_latencies(self):
        split = goodput_split([], threshold=0.2, duration=1.0)
        assert split == GoodputSplit(0.0, 0.0, 0.2)


class TestBucketing:
    def test_bucketed_rate(self):
        times = np.array([0.1, 0.2, 1.5, 2.9])
        centers, rates = bucketed_rate(times, interval=1.0, since=0.0,
                                       until=3.0)
        assert list(centers) == [0.5, 1.5, 2.5]
        assert list(rates) == [2.0, 1.0, 1.0]

    def test_bucketed_rate_with_predicate(self):
        times = np.array([0.1, 0.2, 0.3])
        good = np.array([True, False, True])
        _c, rates = bucketed_rate(times, interval=1.0, since=0.0,
                                  until=1.0, predicate=good)
        assert rates[0] == pytest.approx(2.0)

    def test_bucketed_percentile(self):
        times = np.array([0.5, 0.6, 1.5])
        values = np.array([10.0, 20.0, 30.0])
        centers, p = bucketed_percentile(times, values, interval=1.0,
                                         since=0.0, until=3.0, q=50)
        assert p[0] == pytest.approx(15.0)
        assert p[1] == pytest.approx(30.0)
        assert np.isnan(p[2])

    def test_histogram_clips_to_maximum(self):
        latencies = np.array([0.05, 0.15, 5.0])
        centers, counts = response_time_histogram(
            latencies, bin_width=0.1, maximum=1.0)
        assert counts.sum() == 3
        assert counts[-1] == 1  # the 5.0 clipped into the last bin


class TestMape:
    def test_basic(self):
        assert mape([100, 200], [110, 180]) == pytest.approx(10.0)

    def test_perfect(self):
        assert mape([5, 10], [5, 10]) == 0.0

    def test_mismatched_shapes(self):
        with pytest.raises(ValueError):
            mape([1, 2], [1])

    def test_empty(self):
        with pytest.raises(ValueError):
            mape([], [])

    def test_zero_actual(self):
        with pytest.raises(ValueError):
            mape([0.0], [1.0])
