"""Property tests for the log-bucketed streaming quantile sketch.

Every estimate must lie within relative error ``ALPHA`` of the
observations around its rank, stay inside the observed ``[min, max]``
envelope unconditionally, and the sketch's state must be exact: a
weighted insert equals repeated inserts, and a restored copy continues
a stream exactly like the original.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.obs import QuantileSketch
from repro.obs.sketch import ALPHA

SUPPRESS = (HealthCheck.too_slow,)

#: Floating-point slack on the relative bound (a value on a bucket
#: boundary may round into its neighbour).
ULP_SLACK = 1e-12

_VALUES = st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                    allow_infinity=False)


def _sketch_of(values) -> QuantileSketch:
    sketch = QuantileSketch()
    for value in values:
        sketch.observe(value)
    return sketch


def _assert_within_alpha(data: np.ndarray, sketch: QuantileSketch,
                         q: float) -> None:
    ordered = np.sort(data)
    rank = q * (ordered.size - 1)
    x_lo = float(ordered[math.floor(rank)])
    x_hi = float(ordered[math.ceil(rank)])
    estimate = sketch.quantile(q)
    assert (1 - ALPHA) * x_lo * (1 - ULP_SLACK) <= estimate <= \
        (1 + ALPHA) * x_hi * (1 + ULP_SLACK), (
            f"q={q}: estimate {estimate} outside "
            f"[{(1 - ALPHA) * x_lo}, {(1 + ALPHA) * x_hi}]")


class TestAgainstNumpy:
    """Accuracy on shuffled draws from assorted distributions."""

    @pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
    @pytest.mark.parametrize("dist", [
        "uniform", "normal", "lognormal", "exponential", "bimodal",
    ])
    def test_rank_error_is_small(self, dist, q):
        rng = np.random.default_rng(hash((dist, q)) % (2 ** 31))
        n = 20_000
        if dist == "uniform":
            data = rng.uniform(0.0, 10.0, n)
        elif dist == "normal":
            # Folded: negative values are outside the sketch's domain.
            data = np.abs(rng.normal(5.0, 2.0, n))
        elif dist == "lognormal":
            data = rng.lognormal(0.0, 1.0, n)
        elif dist == "exponential":
            data = rng.exponential(0.3, n)
        else:  # bimodal: fast hits + slow tail, like a breaker flapping
            data = np.abs(np.where(rng.random(n) < 0.8,
                                   rng.normal(0.05, 0.01, n),
                                   rng.normal(2.0, 0.3, n)))
        _assert_within_alpha(data, _sketch_of(data.tolist()), q)

    def test_matches_percentile_closely_on_lognormal_p99(self):
        rng = np.random.default_rng(7)
        data = rng.lognormal(0.0, 1.0, 50_000)
        estimate = _sketch_of(data.tolist()).quantile(0.99)
        truth = float(np.percentile(data, 99))
        assert abs(estimate - truth) / truth < 2 * ALPHA


class TestAdversarial:
    """Sorted / constant / spike streams: bounded, never out of range."""

    @pytest.mark.parametrize("order", ["ascending", "descending"])
    def test_sorted_stream_stays_in_envelope(self, order):
        data = np.linspace(0.0, 1.0, 5_000)
        if order == "descending":
            data = data[::-1]
        sketch = _sketch_of(data.tolist())
        assert 0.0 <= sketch.quantile(0.99) <= 1.0
        _assert_within_alpha(data, sketch, 0.99)

    def test_constant_stream_is_exact(self):
        sketch = QuantileSketch()
        sketch.observe(3.25, 1_000)
        for q in (0.0, 0.5, 1.0):
            assert sketch.quantile(q) == 3.25

    def test_single_spike_does_not_hijack_median(self):
        rng = np.random.default_rng(11)
        sketch = _sketch_of(np.abs(rng.normal(1.0, 0.1, 10_000)).tolist())
        sketch.observe(1e9)
        assert sketch.quantile(0.5) < 2.0
        assert sketch.quantile(1.0) >= 1e9 * (1 - ALPHA)


class TestSmallSampleExactness:
    def test_empty_is_nan(self):
        assert math.isnan(QuantileSketch().quantile(0.5))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_small_samples_within_alpha(self, n):
        data = np.random.default_rng(n).uniform(0.0, 1.0, n)
        sketch = _sketch_of(data.tolist())
        assert (sketch.count, sketch.min, sketch.max) == \
            (n, data.min(), data.max())
        for q in (0.0, 0.25, 0.5, 0.99, 1.0):
            _assert_within_alpha(data, sketch, q)

    def test_rejects_degenerate_quantile(self):
        sketch = _sketch_of([1.0, 2.0])
        for bad in (-0.5, 1.5, float("nan")):
            with pytest.raises(ValueError, match="quantile"):
                sketch.quantile(bad)


class TestDomain:
    @pytest.mark.parametrize("bad", [float("nan"), -1e-9, -1.0,
                                     float("inf"), float("-inf")])
    def test_rejects_values_outside_the_domain(self, bad):
        sketch = QuantileSketch()
        with pytest.raises(ValueError, match="finite and >= 0"):
            sketch.observe(bad)
        assert sketch.state_dict() == QuantileSketch().state_dict()

    def test_zero_and_extreme_values(self):
        sketch = _sketch_of([0.0, 0.0, 5e-324, 1e-300, 1e300,
                             1.7976931348623157e308])
        assert sketch.zero == 2
        assert sketch.quantile(0.0) == 0.0
        top = sketch.quantile(1.0)
        assert 1.7976931348623157e308 * (1 - ALPHA) <= top <= sketch.max
        assert 1e300 * (1 - ALPHA) <= sketch.quantile(0.8) <= \
            1e300 * (1 + ALPHA)


@settings(max_examples=50, deadline=None, suppress_health_check=SUPPRESS)
@given(values=st.lists(_VALUES, min_size=1, max_size=300),
       q=st.sampled_from([0.0, 0.1, 0.5, 0.9, 0.99, 1.0]))
def test_estimate_always_inside_observed_envelope(values, q):
    sketch = _sketch_of(values)
    assert min(values) <= sketch.quantile(q) <= max(values)
    assert sketch.count == len(values)
    _assert_within_alpha(np.array(values), sketch, q)


@settings(max_examples=50, deadline=None, suppress_health_check=SUPPRESS)
@given(prefix=st.lists(_VALUES, max_size=50), value=_VALUES,
       count=st.integers(1, 2_000))
def test_weighted_observe_equals_repeated_observe(prefix, value, count):
    weighted = _sketch_of(prefix)
    weighted.observe(value, count)
    repeated = _sketch_of(prefix + [value] * count)
    # The sum is one rounding of value * count rather than count
    # roundings of a running sum: equal to within a few ulps.
    assert weighted.total == pytest.approx(repeated.total, rel=1e-12,
                                           abs=1e-300)
    assert weighted.state_dict() == {**repeated.state_dict(),
                                     "sum": weighted.total}


@settings(max_examples=50, deadline=None, suppress_health_check=SUPPRESS)
@given(head=st.lists(_VALUES, max_size=100),
       tail=st.lists(_VALUES, max_size=100))
def test_restored_copy_continues_the_stream_exactly(head, tail):
    original = _sketch_of(head)
    restored = QuantileSketch.from_state(
        json.loads(json.dumps(original.state_dict())))
    assert restored.state_dict() == original.state_dict()
    for value in tail:
        original.observe(value)
        restored.observe(value)
    assert restored.state_dict() == original.state_dict()
    for q in (0.0, 0.5, 0.99, 1.0):
        assert (restored.quantile(q) == original.quantile(q)
                or math.isnan(original.quantile(q)))


class TestQuantileSketch:
    def test_bundles_quantiles_and_aggregates(self):
        rng = np.random.default_rng(3)
        data = rng.exponential(1.0, 8_000)
        sketch = _sketch_of(data.tolist())
        assert sketch.count == data.size
        assert sketch.min == data.min()
        assert sketch.max == data.max()
        assert sketch.mean == pytest.approx(float(data.mean()))
        for q in (0.5, 0.95, 0.99):
            _assert_within_alpha(data, sketch, q)

    def test_empty_snapshot_and_nan(self):
        sketch = QuantileSketch()
        assert sketch.snapshot() == {"type": "histogram", "count": 0}
        assert math.isnan(sketch.quantile(0.5))
        assert math.isnan(sketch.mean)

    def test_snapshot_round_trips_json_keys(self):
        sketch = _sketch_of([0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
        sketch.link_exemplar(7, 0.6, 12.0)
        snap = json.loads(json.dumps(sketch.snapshot()))
        assert snap["count"] == 6
        assert snap["min"] == 0.1 and snap["max"] == 0.6
        assert {"p50", "p95"} <= set(snap)
        assert snap["exemplar"] == {"trace_id": 7, "value": 0.6,
                                    "timestamp": 12.0}

    def test_exemplar_strictly_larger_wins(self):
        sketch = QuantileSketch()
        sketch.link_exemplar(1, 0.5, 1.0)
        sketch.link_exemplar(2, 0.5, 2.0)
        assert sketch.exemplar.trace_id == 1
        sketch.link_exemplar(3, 0.7, 3.0)
        assert sketch.exemplar.trace_id == 3
