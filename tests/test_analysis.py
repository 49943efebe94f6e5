"""Tests for Kneedle, smoothing, and Pearson correlation."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import (
    aggregate_scatter,
    find_knee,
    KneeGrid,
    PolynomialFitter,
    find_knees,
    fit_polynomial,
    pearson,
)


class TestPearson:
    def test_perfect_positive(self):
        assert pearson([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_constant_series_returns_zero(self):
        assert pearson([1, 1, 1], [1, 2, 3]) == 0.0

    def test_too_few_points(self):
        assert pearson([1], [2]) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            pearson([1, 2], [1, 2, 3])

    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=100)
        y = 0.5 * x + rng.normal(size=100)
        assert pearson(x, y) == pytest.approx(np.corrcoef(x, y)[0, 1])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=30))
    @example([0.0, 1.6466279048663534e-161])  # subnormal squares
    def test_bounded(self, values):
        rng = np.random.default_rng(1)
        other = rng.normal(size=len(values))
        r = pearson(values, other)
        assert -1.0 - 1e-9 <= r <= 1.0 + 1e-9


class TestAggregateScatter:
    def test_averages_per_x(self):
        x = np.array([2.0, 1.0, 2.0, 1.0])
        y = np.array([10.0, 4.0, 20.0, 6.0])
        ax, ay = aggregate_scatter(x, y)
        assert list(ax) == [1.0, 2.0]
        assert list(ay) == [5.0, 15.0]

    def test_empty(self):
        ax, ay = aggregate_scatter(np.array([]), np.array([]))
        assert ax.size == 0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            aggregate_scatter(np.array([1.0]), np.array([1.0, 2.0]))


class TestPolynomialFit:
    def test_exact_fit_of_polynomial_data(self):
        x = np.linspace(0, 10, 50)
        y = 2 * x ** 2 - 3 * x + 1
        fit = fit_polynomial(x, y, degree=2)
        assert fit.rmse == pytest.approx(0.0, abs=1e-8)
        assert fit(np.array([1.0]))[0] == pytest.approx(0.0, abs=1e-8)

    def test_insufficient_points_rejected(self):
        with pytest.raises(ValueError):
            fit_polynomial(np.array([1.0, 2.0]), np.array([1.0, 2.0]),
                           degree=3)

    def test_invalid_degree(self):
        with pytest.raises(ValueError):
            fit_polynomial(np.arange(5.0), np.arange(5.0), degree=0)

    def test_matches_numpy_polyfit(self):
        rng = np.random.default_rng(4)
        x = np.arange(1.0, 21.0)
        y = 40 * x / (1 + x / 8) + rng.normal(0, 2, x.size)
        for degree in range(1, 9):
            fit = fit_polynomial(x, y, degree)
            coefficients = np.polyfit(x, y, degree)
            grid = np.linspace(1.0, 20.0, 200)
            np.testing.assert_allclose(fit.y, np.polyval(coefficients,
                                                         grid),
                                       rtol=1e-9)
            assert fit.rmse == pytest.approx(float(np.sqrt(np.mean(
                (np.polyval(coefficients, x) - y) ** 2))), rel=1e-9)

    def test_batch_rows_fit_as_if_alone(self):
        # Each row fits over its own levels: a batch mixes grids.
        rng = np.random.default_rng(5)
        x = np.sort(rng.choice(np.arange(0.0, 60.0, 0.5), (7, 20),
                               replace=True), axis=1)
        x[:, 0] -= np.arange(7)  # no duplicate-only rows
        ys = rng.normal(0, 1, x.shape).cumsum(axis=1)
        ys[3, 4] = np.inf
        fitter = PolynomialFitter(x, ys, max_degree=8)
        for degree in range(1, 9):
            batch = fitter.fit(degree)
            for row in range(x.shape[0]):
                alone = PolynomialFitter(x[row:row + 1], ys[row:row + 1],
                                         max_degree=8).fit(degree).row(0)
                fit = batch.row(row)
                np.testing.assert_array_equal(fit.coefficients,
                                              alone.coefficients)
                np.testing.assert_array_equal(fit.x, alone.x)
                np.testing.assert_array_equal(fit.y, alone.y)
                np.testing.assert_array_equal(fit.rmse, alone.rmse)
            # A subset of rows fits as the full batch does.
            subset = fitter.fit(degree, np.array([5, 1]))
            np.testing.assert_array_equal(subset.y, batch.y[[5, 1]])
            # A non-finite sample makes only its own row's fit undefined.
            assert np.isnan(batch.y[3]).all()
            assert np.isfinite(np.delete(batch.y, 3, axis=0)).all()

    def test_fitter_matches_polyval_and_polyfit(self):
        rng = np.random.default_rng(6)
        x = np.sort(rng.uniform(0.5, 40.0, (5, 15)), axis=1)
        ys = 30 * x / (1 + x / 6) + rng.normal(0, 1, x.shape)
        fitter = PolynomialFitter(x, ys, max_degree=8)
        for degree in range(1, 9):
            fits = fitter.fit(degree)
            for row in range(x.shape[0]):
                fit = fits.row(row)
                # The curve is the polynomial at its grid, bit for bit.
                np.testing.assert_array_equal(fit(fit.x), fit.y)
                np.testing.assert_array_equal(
                    fit.x, np.linspace(x[row].min(), x[row].max(), 200))
                np.testing.assert_allclose(
                    fit.y, np.polyval(np.polyfit(x[row], ys[row], degree),
                                      fit.x), rtol=1e-9)

    def test_rows_equal_row_by_row(self):
        rng = np.random.default_rng(7)
        x = np.sort(rng.uniform(0.5, 40.0, (6, 15)), axis=1)
        ys = 30 * x / (1 + x / 6) + rng.normal(0, 1, x.shape)
        fits = PolynomialFitter(x, ys, max_degree=6).fit(5)
        picked = [4, 0, 4, 2]
        for fit, row in zip(fits.rows(np.array(picked)), picked):
            alone = fits.row(row)
            assert fit.degree == alone.degree == 5
            np.testing.assert_array_equal(fit.coefficients,
                                          alone.coefficients)
            np.testing.assert_array_equal(fit.x, alone.x)
            np.testing.assert_array_equal(fit.y, alone.y)
            assert fit.rmse == alone.rmse
            assert type(fit.rmse) is float
        assert fits.rows([]) == []

    def test_fitter_rejects_bad_degrees(self):
        x = np.tile(np.arange(6.0), (2, 1))
        with pytest.raises(ValueError):
            PolynomialFitter(x, x, max_degree=6)
        with pytest.raises(ValueError):
            PolynomialFitter(x, x[:, :5], max_degree=2)
        with pytest.raises(ValueError):
            PolynomialFitter(x, x, max_degree=3).fit(4)


def reference_knee(x, y, curve, direction, sensitivity, select):
    """Kneedle on one curve, point by point as the paper states it:
    ``(found, knee index, confirmed indices, prominence)``."""
    size = len(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        x_n = (x - x.min()) / (x.max() - x.min())
        y_n = (y - y.min()) / (y.max() - y.min())
    reflected = (curve, direction) in {("concave", "decreasing"),
                                       ("convex", "increasing")}
    if curve == "convex":
        y_n = 1.0 - y_n
    x_t = (1.0 - x_n)[::-1] if reflected else x_n
    y_t = y_n[::-1] if reflected else y_n
    d = y_t - x_t
    threshold_drop = sensitivity * np.mean(np.abs(np.diff(x_t)))
    maxima = [i for i in range(1, size - 1)
              if d[i] > d[i - 1] and d[i] >= d[i + 1]]
    knees = []
    for k, peak in enumerate(maxima):
        end = maxima[k + 1] if k + 1 < len(maxima) else size
        threshold = d[peak] - threshold_drop
        if any(d[j] < threshold for j in range(peak, end)):
            knees.append(peak)
    if (not knees and maxima and maxima[-1] >= size - 2
            and d[maxima[-1]] == d.max()):
        knees.append(maxima[-1])
    if not knees:
        return False, 0, [], float("nan")
    chosen = (max(knees, key=lambda t: (d[t], -t)) if select == "prominent"
              else max(knees) if reflected else min(knees))
    original = sorted(size - 1 - t if reflected else t for t in knees)
    return (True, size - 1 - chosen if reflected else chosen, original,
            float(d[chosen]))


class TestKneedle:
    @pytest.mark.parametrize("curve", ["concave", "convex"])
    @pytest.mark.parametrize("direction", ["increasing", "decreasing"])
    def test_matches_point_by_point_reference(self, curve, direction):
        rng = np.random.default_rng(13)
        x = np.linspace(0, 20, 120)
        rows = [np.minimum(x / knee, 1.0) for knee in rng.uniform(1, 19, 6)]
        rows += [np.exp(-x / tau) for tau in rng.uniform(1, 8, 6)]
        rows += [rng.normal(0, 1, x.size).cumsum() for _ in range(10)]
        rows += [np.sin(x * w) for w in rng.uniform(0.3, 3.0, 6)]
        ys = np.array(rows) + rng.normal(0, 1e-3, (len(rows), x.size))
        # Plateaus (ties between neighbours), flat rows, a lone NaN.
        ys = np.concatenate([ys, np.round(ys[::3], 1),
                             np.ones((1, x.size)),
                             np.where(np.arange(x.size) == 40, np.nan,
                                      ys[:1])])
        for sensitivity in (0.0, 0.5, 1.0, 3.0):
            for select in ("first", "prominent"):
                batch = find_knees(x, ys, curve=curve, direction=direction,
                                   sensitivity=sensitivity, select=select)
                for row, y in enumerate(ys):
                    found, index, confirmed, prominence = reference_knee(
                        x, y, curve, direction, sensitivity, select)
                    assert batch.found[row] == found
                    assert batch.index[row] == index
                    assert np.flatnonzero(batch.confirmed[row]).tolist() \
                        == confirmed
                    np.testing.assert_array_equal(batch.prominence[row],
                                                  prominence)

    @pytest.mark.parametrize("curve", ["concave", "convex"])
    @pytest.mark.parametrize("direction", ["increasing", "decreasing"])
    @pytest.mark.parametrize("select", ["first", "prominent"])
    def test_rows_match_find_knee_bitwise(self, curve, direction, select):
        rng = np.random.default_rng(9)
        x = np.linspace(0, 20, 200)
        rows = [np.minimum(x / knee, 1.0) * scale
                for knee, scale in zip(rng.uniform(1, 19, 8),
                                       rng.uniform(0.1, 50, 8))]
        rows += [np.exp(-x / tau) for tau in rng.uniform(1, 8, 8)]
        rows += [(x / 20) ** power for power in rng.uniform(0.2, 5, 8)]
        rows += [rng.normal(0, 1, x.size).cumsum() for _ in range(8)]
        rows += [np.ones_like(x), 2 * x]
        ys = np.array(rows) + rng.normal(0, 1e-3, (len(rows), x.size))
        for sensitivity in (0.0, 1.0, 3.0):
            batch = find_knees(x, ys, curve=curve, direction=direction,
                               sensitivity=sensitivity, select=select)
            assert batch.found.any()
            for row, y in enumerate(ys):
                alone = find_knee(x, y, curve=curve, direction=direction,
                                  sensitivity=sensitivity, select=select)
                knee = batch.row(row)
                assert knee.found == alone.found
                assert knee.all_knee_x == alone.all_knee_x
                np.testing.assert_array_equal(
                    [knee.knee_x, knee.knee_y, knee.prominence],
                    [alone.knee_x, alone.knee_y, alone.prominence])
                np.testing.assert_array_equal(knee.difference,
                                              alone.difference)

    @pytest.mark.parametrize("curve", ["concave", "convex"])
    @pytest.mark.parametrize("direction", ["increasing", "decreasing"])
    def test_rows_over_own_x_match_find_knee_bitwise(self, curve,
                                                     direction):
        rng = np.random.default_rng(10)
        lows, highs = rng.uniform(0, 10, 12), rng.uniform(12, 60, 12)
        xs = np.linspace(lows, highs, 200, axis=1)
        t = (xs - lows[:, None]) / (highs - lows)[:, None]
        shape = rng.uniform(0.1, 0.9, (12, 1))
        ys = np.concatenate([np.minimum(t[:4] / shape[:4], 1.0),
                             np.exp(-t[4:8] / shape[4:8]),
                             t[8:] ** (5 * shape[8:])])
        ys += rng.normal(0, 1e-3, ys.shape)
        xs[-1] = 5.0  # a flat x confirms no knee
        for select in ("first", "prominent"):
            batch = find_knees(xs, ys, curve=curve, direction=direction,
                               select=select)
            assert batch.found[:-1].any() and not batch.found[-1]
            for row in range(xs.shape[0]):
                alone = find_knee(xs[row], ys[row], curve=curve,
                                  direction=direction, select=select)
                knee = batch.row(row)
                assert knee.found == alone.found
                assert knee.all_knee_x == alone.all_knee_x
                np.testing.assert_array_equal(
                    [knee.knee_x, knee.knee_y, knee.prominence],
                    [alone.knee_x, alone.knee_y, alone.prominence])

    @staticmethod
    def curves_over_own_x(seed):
        rng = np.random.default_rng(seed)
        lows, highs = rng.uniform(0, 10, 16), rng.uniform(12, 60, 16)
        xs = np.linspace(lows, highs, 200, axis=1)
        t = (xs - lows[:, None]) / (highs - lows)[:, None]
        shape = rng.uniform(0.1, 0.9, (16, 1))
        ys = np.concatenate([np.minimum(t[:4] / shape[:4], 1.0),
                             np.exp(-t[4:8] / shape[4:8]),
                             t[8:12] ** (5 * shape[8:12]),
                             rng.normal(0, 1, (4, 200)).cumsum(axis=1)])
        ys += rng.normal(0, 1e-3, ys.shape)
        xs[-1] = 5.0  # a flat x confirms no knee
        return xs, ys

    @pytest.mark.parametrize("curve", ["concave", "convex"])
    @pytest.mark.parametrize("direction", ["increasing", "decreasing"])
    def test_grid_matches_find_knees_bitwise(self, curve, direction):
        xs, ys = self.curves_over_own_x(11)
        grid = KneeGrid(xs, curve=curve, direction=direction)
        for sensitivity in (0.0, 1.0):
            for select in ("first", "prominent"):
                # All rows, then a subset in another order (the rows
                # left in an SCG search), reuse one grid.
                for rows in (None, np.array([9, 2, 15, 4, 0])):
                    chosen = slice(None) if rows is None else rows
                    hoisted = grid.knees(ys[chosen], rows,
                                         sensitivity=sensitivity,
                                         select=select)
                    plain = find_knees(xs[chosen], ys[chosen],
                                       curve=curve, direction=direction,
                                       sensitivity=sensitivity,
                                       select=select)
                    assert hoisted.found.any()
                    for field in ("x", "y", "found", "index",
                                  "confirmed", "difference",
                                  "prominence"):
                        np.testing.assert_array_equal(
                            getattr(hoisted, field), getattr(plain, field))

    def test_batch_rows_equal_row_by_row(self):
        xs, ys = self.curves_over_own_x(12)
        batch = find_knees(xs, ys)
        assert batch.found.any() and not batch.found.all()
        picked = [3, 15, 0, 3, 8, 12]
        for knee, row in zip(batch.rows(np.array(picked)), picked):
            alone = batch.row(row)
            assert knee.found == alone.found
            assert knee.all_knee_x == alone.all_knee_x
            np.testing.assert_array_equal(
                [knee.knee_x, knee.knee_y, knee.prominence],
                [alone.knee_x, alone.knee_y, alone.prominence])
            np.testing.assert_array_equal(knee.difference,
                                          alone.difference)
            assert type(knee.knee_x) is float
        assert batch.rows([]) == []

    def test_grid_rejects_bad_input(self):
        with pytest.raises(ValueError):
            KneeGrid(np.arange(5.0))
        with pytest.raises(ValueError):
            KneeGrid(np.array([[0.0, 2.0, 1.0]]))
        with pytest.raises(ValueError):
            KneeGrid(np.ones((1, 5)), curve="flat")
        with pytest.raises(ValueError):
            KneeGrid(np.tile(np.arange(5.0), (2, 1))).knees(np.ones((3, 5)))

    def test_piecewise_linear_knee(self):
        x = np.linspace(0, 20, 200)
        y = np.minimum(x / 5.0, 1.0)
        result = find_knee(x, y)
        assert result.found
        assert result.knee_x == pytest.approx(5.0, abs=0.3)

    def test_exponential_saturation(self):
        x = np.linspace(0, 20, 200)
        y = 1 - np.exp(-x / 3.0)
        result = find_knee(x, y)
        assert result.found
        # Analytic Kneedle knee for 1-e^{-x/tau} is near 1.9*tau.
        assert 3.0 < result.knee_x < 9.0

    def test_rise_then_fall_curve(self):
        # Goodput-like: rises to a peak then degrades. The knee should
        # land near the start of the plateau/peak region.
        x = np.linspace(0, 30, 300)
        y = np.where(x < 8, x / 8.0, 1.0 - 0.02 * (x - 8))
        result = find_knee(x, y)
        assert result.found
        assert result.knee_x == pytest.approx(8.0, abs=1.0)

    def test_straight_line_has_no_knee(self):
        x = np.linspace(0, 10, 100)
        result = find_knee(x, 2 * x)
        assert not result.found

    def test_flat_curve_has_no_knee(self):
        x = np.linspace(0, 10, 100)
        result = find_knee(x, np.ones_like(x))
        assert not result.found

    def test_too_few_points(self):
        assert not find_knee([1, 2], [1, 2]).found

    def test_unsorted_x_rejected(self):
        with pytest.raises(ValueError):
            find_knee([3, 1, 2], [1, 2, 3])

    def test_negative_sensitivity_rejected(self):
        with pytest.raises(ValueError):
            find_knee([1, 2, 3], [1, 2, 3], sensitivity=-1.0)

    def test_convex_decreasing_elbow(self):
        x = np.linspace(0, 20, 200)
        y = np.exp(-x / 3.0)
        result = find_knee(x, y, curve="convex", direction="decreasing")
        assert result.found
        assert 3.0 < result.knee_x < 9.0

    def test_concave_decreasing(self):
        x = np.linspace(0, 10, 200)
        y = 1 - (x / 10.0) ** 4
        result = find_knee(x, y, curve="concave", direction="decreasing")
        assert result.found
        assert result.knee_x > 4.0

    def test_convex_increasing(self):
        x = np.linspace(0, 10, 200)
        y = (x / 10.0) ** 4
        result = find_knee(x, y, curve="convex", direction="increasing")
        assert result.found
        assert result.knee_x > 4.0

    def test_sensitivity_increases_conservatism(self):
        # A subtle knee confirmed at S=1 may be rejected at huge S.
        x = np.linspace(0, 20, 100)
        y = np.minimum(x / 5.0, 1.0) + 0.002 * x
        loose = find_knee(x, y, sensitivity=1.0)
        strict = find_knee(x, y, sensitivity=50.0)
        assert loose.found
        assert not strict.found or strict.knee_x >= loose.knee_x

    def test_prominent_selection(self):
        # Two knees: a weak early one and a strong later one.
        x = np.linspace(0, 30, 600)
        y = np.minimum(x / 4.0, 1.0) * 0.3 + np.where(
            x > 10, np.minimum((x - 10) / 5.0, 1.0), 0.0) * 0.7
        first = find_knee(x, y, select="first")
        prominent = find_knee(x, y, select="prominent")
        assert first.found and prominent.found
        assert prominent.knee_x >= first.knee_x
        assert len(first.all_knee_x) >= 1

    @settings(max_examples=30, deadline=None)
    @given(knee=st.floats(2.0, 15.0), scale=st.floats(0.5, 100.0))
    def test_recovers_piecewise_knee_location(self, knee, scale):
        x = np.linspace(0, 20, 400)
        y = np.minimum(x / knee, 1.0) * scale
        result = find_knee(x, y)
        assert result.found
        assert result.knee_x == pytest.approx(knee, rel=0.15, abs=0.3)
