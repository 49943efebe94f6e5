"""Tests for the SCG and SCT scatter-curve models."""

import numpy as np
import pytest

from repro.analysis import aggregate_scatter, find_knee
from repro.core import SCGModel, SCTModel, ScatterModelConfig
from repro.core.scg import ConcurrencyEstimate


def synth_pairs(rng, *, knee=10.0, capacity=300.0, decline=0.02,
                samples=600, q_max=25.0, noise=10.0):
    """Synthesize <Q, GP> pairs from a rise-flatten-decline curve."""
    q = rng.uniform(0.5, q_max, samples)
    gp = np.where(q < knee, capacity * q / knee,
                  capacity * (1.0 - decline * (q - knee)))
    gp = np.clip(gp + rng.normal(0.0, noise, samples), 0.0, None)
    return q, gp


class TestSCGModel:
    def setup_method(self):
        self.rng = np.random.default_rng(7)

    def test_recovers_synthetic_knee(self):
        q, gp = synth_pairs(self.rng, knee=10.0)
        estimate = SCGModel().estimate(q, gp, threshold=0.25)
        assert estimate is not None
        assert estimate.method == "knee"
        assert estimate.optimal_concurrency == pytest.approx(10, abs=3)
        assert estimate.threshold == 0.25

    def test_knee_scales_with_curve(self):
        for knee in (5.0, 15.0):
            q, gp = synth_pairs(self.rng, knee=knee, q_max=3 * knee)
            estimate = SCGModel().estimate(q, gp)
            assert estimate is not None
            assert estimate.optimal_concurrency == pytest.approx(
                knee, abs=0.35 * knee)

    def test_too_few_samples_returns_none(self):
        q, gp = synth_pairs(self.rng, samples=10)
        assert SCGModel().estimate(q, gp) is None

    def test_too_few_distinct_levels_returns_none(self):
        q = np.full(100, 3.0)
        gp = np.full(100, 100.0)
        assert SCGModel().estimate(q, gp) is None

    def test_idle_samples_ignored(self):
        q, gp = synth_pairs(self.rng)
        q = np.concatenate([q, np.zeros(200)])
        gp = np.concatenate([gp, np.zeros(200)])
        estimate = SCGModel().estimate(q, gp)
        assert estimate is not None
        assert estimate.optimal_concurrency == pytest.approx(10, abs=3)

    def test_rising_curve_recommendation_is_at_the_edge(self):
        # Pure linear rise: no interior knee exists. Whether the model
        # reports an edge knee (fitting wiggle) or the argmax fallback,
        # the recommendation must sit at the top of the observed range —
        # the signal the adapter's exploration rule keys on.
        q = self.rng.uniform(0.5, 20.0, 400)
        gp = 10.0 * q + self.rng.normal(0, 2.0, 400)
        estimate = SCGModel().estimate(q, gp)
        assert estimate is not None
        assert estimate.optimal_concurrency >= \
            0.8 * estimate.max_concurrency

    def test_argmax_fallback_disabled(self):
        config = ScatterModelConfig(allow_argmax_fallback=False,
                                    knee_quality=0.97)
        q = self.rng.uniform(0.5, 20.0, 400)
        gp = 10.0 * q + self.rng.normal(0, 2.0, 400)
        assert SCGModel(config).estimate(q, gp) is None

    def test_max_concurrency_reported(self):
        q, gp = synth_pairs(self.rng, q_max=18.0)
        estimate = SCGModel().estimate(q, gp)
        assert estimate is not None
        assert estimate.max_concurrency == pytest.approx(18.0, abs=1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            SCGModel().estimate(np.ones(5), np.ones(6))

    def test_threshold_changes_knee(self):
        """The SCG premise (Fig. 7): a tighter threshold reshapes the
        goodput curve, moving the knee."""
        q = self.rng.uniform(0.5, 30.0, 800)
        # Loose threshold: goodput ~ throughput, knee at 15.
        loose = np.where(q < 15, 300 * q / 15, 300.0)
        # Tight threshold: responses past Q=6 start missing it.
        tight = np.where(q < 6, 300 * q / 15,
                         np.clip(120 - 10 * (q - 6), 0, None))
        noise = self.rng.normal(0, 5.0, 800)
        est_loose = SCGModel().estimate(q, loose + noise)
        est_tight = SCGModel().estimate(q, tight + noise)
        assert est_loose is not None and est_tight is not None
        assert est_tight.optimal_concurrency < \
            est_loose.optimal_concurrency

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ScatterModelConfig(min_degree=5, max_degree=3)
        with pytest.raises(ValueError):
            ScatterModelConfig(min_distinct=2)
        with pytest.raises(ValueError):
            ScatterModelConfig(quantum=0.0)
        with pytest.raises(ValueError):
            ScatterModelConfig(knee_quality=1.5)


def saturating_pairs(rng, *, levels=20, samples=240, amp=40.0,
                     knee=8.0, noise=2.0):
    """Hyperbolic saturating ``amp*q/(1+q/knee)`` pairs on integer
    levels ``1..levels`` (the shape of a service round's series)."""
    q = rng.integers(1, levels + 1, samples).astype(float)
    gp = amp * q / (1.0 + q / knee) + rng.normal(0.0, noise, samples)
    return q, gp


def oracle_estimate(concurrency, rate, config=ScatterModelConfig()):
    """The per-window, per-degree ``np.polyfit`` + :func:`find_knee`
    loop that batched estimation replaced; returns ``(optimal, method,
    degree, knee, fit_y, rmse, fit_r2)`` or ``None``."""
    concurrency = np.asarray(concurrency, dtype=float)
    rate = np.asarray(rate, dtype=float)
    if concurrency.size < config.min_samples:
        return None
    busy = concurrency > 0
    quantized = np.round(concurrency[busy] / config.quantum) * \
        config.quantum
    q_values, gp_values = aggregate_scatter(quantized, rate[busy])
    distinct = int(np.unique(q_values).size)
    if distinct < config.min_distinct:
        return None
    max_degree = min(config.max_degree, distinct - 2)
    if max_degree < config.min_degree:
        return None
    variance = float(np.var(gp_values))
    for degree in range(config.min_degree, max_degree + 1):
        coefficients = np.polyfit(q_values, gp_values, degree)
        rmse = float(np.sqrt(np.mean(
            (np.polyval(coefficients, q_values) - gp_values) ** 2)))
        grid = np.linspace(float(q_values.min()), float(q_values.max()),
                           200)
        fit_y = np.polyval(coefficients, grid)
        knee = find_knee(grid, fit_y, sensitivity=config.sensitivity)
        fit_r2 = 1.0 - rmse ** 2 / variance
        if knee.found and knee.knee_x > 0 and \
                knee.knee_y >= config.knee_quality * float(fit_y.max()):
            return (max(1, int(round(knee.knee_x))), "knee", degree, knee,
                    fit_y, rmse, fit_r2)
    if not config.allow_argmax_fallback:
        return None
    optimal = max(1, int(round(float(grid[int(np.argmax(fit_y))]))))
    return optimal, "argmax", max_degree, knee, fit_y, rmse, fit_r2


def assert_same_estimate(batched: ConcurrencyEstimate | None,
                         single: ConcurrencyEstimate | None) -> None:
    """Field-for-field, bitwise (NaN equal to NaN)."""
    if single is None:
        assert batched is None
        return
    assert batched is not None
    assert batched.optimal_concurrency == single.optimal_concurrency
    assert batched.method == single.method
    assert batched.samples == single.samples
    assert batched.threshold == single.threshold
    knee_a, knee_b = batched.knee, single.knee
    assert knee_a.found == knee_b.found
    assert knee_a.all_knee_x == knee_b.all_knee_x
    np.testing.assert_array_equal(
        [knee_a.knee_x, knee_a.knee_y, knee_a.prominence],
        [knee_b.knee_x, knee_b.knee_y, knee_b.prominence])
    assert batched.fit.degree == single.fit.degree
    np.testing.assert_array_equal(batched.fit.coefficients,
                                  single.fit.coefficients)
    np.testing.assert_array_equal(batched.fit.y, single.fit.y)
    np.testing.assert_array_equal(
        [batched.fit.rmse, batched.fit_r2, batched.max_concurrency],
        [single.fit.rmse, single.fit_r2, single.max_concurrency])


class TestEstimateMany:
    """One batched pass must estimate each window as if it were
    alone."""

    def mixed_windows(self):
        rng = np.random.default_rng(21)
        windows = []
        for index in range(16):
            # Four level grids: 1..14, and three of 20 levels that stack
            # together (1..20, 8..27 and 0.5..10 in steps of 0.5).
            levels = 14 if index % 4 == 0 else 20
            q, gp = saturating_pairs(rng, levels=levels, knee=3.0 + index,
                                     noise=0.5 + index % 4)
            windows.append((q + 7.0 if index % 4 == 2 else
                            q / 2.0 if index % 4 == 3 else q, gp))
        windows.append(synth_pairs(rng, knee=10.0))   # a real knee
        windows.append(synth_pairs(rng, samples=10))  # too few samples
        windows.append((np.full(100, 3.0), np.full(100, 100.0)))
        nan_q, nan_gp = saturating_pairs(rng)
        nan_gp[7] = np.nan
        inf_q, inf_gp = saturating_pairs(rng)
        inf_gp[11] = np.inf
        windows += [(nan_q, nan_gp), (inf_q, inf_gp)]
        return windows

    def test_batch_equals_each_window_alone(self):
        windows = self.mixed_windows()
        thresholds = [0.1 * (index % 4) or None
                      for index in range(len(windows))]
        model = SCGModel()
        with np.errstate(invalid="ignore"):
            batched = model.estimate_many(windows, thresholds)
            singles = [model.estimate(q, gp, threshold=threshold)
                       for (q, gp), threshold in zip(windows, thresholds)]
        assert len(batched) == len(windows)
        for one_of_many, alone in zip(batched, singles):
            assert_same_estimate(one_of_many, alone)
        # Every branch is in the batch.
        assert batched[-5] is not None and batched[-5].method == "knee"
        assert batched[-4] is None and batched[-3] is None
        assert {estimate.method for estimate in batched[:16]} <= {
            "knee", "argmax"}
        assert {estimate.max_concurrency for estimate in batched[:16]} == {
            10.0, 14.0, 20.0, 27.0}

    def test_non_finite_windows_fall_back_and_stay_isolated(self):
        windows = self.mixed_windows()
        model = SCGModel()
        with np.errstate(invalid="ignore"):
            batched = model.estimate_many(windows)
        for estimate in batched[-2:]:
            # A NaN or inf rate poisons only its own fit: no knee, and
            # the argmax of an all-NaN curve is its first level.
            assert estimate is not None
            assert estimate.method == "argmax"
            assert estimate.optimal_concurrency == 1
            assert not estimate.knee.found
            assert np.isnan(estimate.fit.y).all()
        clean = model.estimate_many(windows[:-2])
        for with_bad, without in zip(batched, clean):
            assert_same_estimate(with_bad, without)

    def test_thresholds_must_match_windows(self):
        with pytest.raises(ValueError):
            SCGModel().estimate_many([(np.ones(50), np.ones(50))],
                                     [0.1, 0.2])

    def test_empty_batch(self):
        assert SCGModel().estimate_many([]) == []


class TestOracleParity:
    """Batched estimation decides what the per-window ``np.polyfit``
    loop decided, to float rounding."""

    def windows(self):
        rng = np.random.default_rng(42)
        windows = [saturating_pairs(rng, knee=rng.uniform(2.0, 20.0),
                                    amp=rng.uniform(5.0, 80.0),
                                    noise=rng.uniform(0.5, 4.0))
                   for _ in range(40)]
        windows += [synth_pairs(rng, knee=rng.uniform(4.0, 16.0),
                                decline=rng.uniform(0.0, 0.04))
                    for _ in range(40)]
        return windows

    def heterogeneous_windows(self):
        """Level grids that differ per window: shifted ranges, and
        sparse samples that leave random levels empty."""
        rng = np.random.default_rng(43)
        windows = []
        for _ in range(40):
            q, gp = saturating_pairs(rng, levels=int(rng.integers(8, 30)),
                                     knee=rng.uniform(2.0, 20.0),
                                     samples=int(rng.integers(60, 240)))
            windows.append((q + float(rng.integers(0, 20)), gp))
        windows += [synth_pairs(rng, knee=knee, q_max=rng.uniform(1.5, 3.0)
                                * knee, samples=int(rng.integers(80, 400)))
                    for knee in rng.uniform(4.0, 16.0, 40)]
        return windows

    def check(self, windows, rel=1e-9, rmse_abs=0.0):
        batched = SCGModel().estimate_many(windows)
        methods = set()
        for (q, gp), estimate in zip(windows, batched):
            expected = oracle_estimate(q, gp)
            assert expected is not None and estimate is not None
            optimal, method, degree, knee, fit_y, rmse, fit_r2 = expected
            methods.add(method)
            assert estimate.optimal_concurrency == optimal
            assert estimate.method == method
            assert estimate.fit.degree == degree
            assert estimate.knee.found == knee.found
            assert estimate.knee.all_knee_x == knee.all_knee_x
            if knee.found:
                assert estimate.knee.knee_x == knee.knee_x
                assert estimate.knee.knee_y == pytest.approx(
                    knee.knee_y, rel=rel)
                assert estimate.knee.prominence == pytest.approx(
                    knee.prominence, rel=rel)
            np.testing.assert_allclose(estimate.fit.y, fit_y, rtol=rel,
                                       atol=rel * np.abs(fit_y).max())
            assert estimate.fit.rmse == pytest.approx(
                rmse, rel=rel, abs=rmse_abs * np.abs(fit_y).max())
            assert estimate.fit_r2 == pytest.approx(fit_r2, rel=rel)
        # Both the knee and the argmax branch are exercised.
        assert methods == {"knee", "argmax"}

    def test_matches_polyfit_oracle(self):
        self.check(self.windows())

    def test_heterogeneous_grids_match_polyfit_oracle(self):
        windows = self.heterogeneous_windows()
        grids = {aggregate_scatter(np.round(q * 2.0) / 2.0, gp)[0].tobytes()
                 for q, gp in windows}
        assert len(grids) > 0.9 * len(windows)  # few grids repeat
        # A degree-8 monomial basis over a narrow, shifted level range
        # (say 13..23) is ill-conditioned: np.polyfit and the batched QR
        # fit each land up to ~3e-8 from the exact least-squares rmse
        # (checked in 60-digit arithmetic), so floats are held to 1e-7
        # relative, and the rmse (a difference of nearly equal numbers)
        # also to 1e-9 of the curve's scale in absolute terms. Every
        # decision field still matches exactly.
        self.check(windows, rel=1e-7, rmse_abs=1e-9)

    @pytest.mark.filterwarnings("ignore::numpy.exceptions.RankWarning")
    def test_high_levels_decide_as_oracle(self):
        # From about level 200 up, a degree-8 design matrix passes
        # np.polyfit's rank cutoff, which drops singular values that the
        # QR solve keeps. The curves then differ slightly; the
        # decisions must not.
        rng = np.random.default_rng(44)
        config = ScatterModelConfig(quantum=1.0, min_samples=30,
                                    min_distinct=5)
        model = SCGModel(config)
        for base in (200.0, 400.0, 1000.0):
            for _ in range(10):
                width = int(rng.integers(10, 40))
                q = base + rng.integers(0, width, 200)
                knee = base + rng.uniform(0.2, 0.8) * width
                gp = 3000.0 * np.minimum(q, knee) / knee - \
                    0.5 * np.maximum(q - knee, 0.0) + \
                    rng.normal(0.0, 2.0, q.size)
                optimal, method, degree, knee_result, fit_y, _, _ = \
                    oracle_estimate(q, gp, config)
                estimate = model.estimate(q, gp)
                assert estimate.optimal_concurrency == optimal
                assert estimate.method == method
                assert estimate.fit.degree == degree
                assert estimate.knee.all_knee_x == knee_result.all_knee_x
                np.testing.assert_allclose(estimate.fit.y, fit_y,
                                           rtol=1e-7)


class TestSCTModel:
    def test_rejects_threshold(self):
        with pytest.raises(ValueError):
            SCTModel().estimate(np.ones(50), np.ones(50), threshold=0.1)
        with pytest.raises(ValueError):
            SCTModel().estimate_many([(np.ones(50), np.ones(50))], [0.1])

    def test_estimates_throughput_knee(self):
        rng = np.random.default_rng(3)
        q, tp = synth_pairs(rng, knee=12.0, decline=0.005)
        estimate = SCTModel().estimate(q, tp)
        assert estimate is not None
        assert estimate.optimal_concurrency == pytest.approx(12, abs=4)
        assert estimate.threshold is None

    def test_model_names(self):
        assert SCGModel().name == "scg"
        assert SCTModel().name == "sct"
