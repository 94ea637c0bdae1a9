import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusiongain.errors import (
    BadFoldCount,
    OutOfRange,
    SingularDesign,
    TooFewObservations,
    ZeroDispersion,
)
from fusiongain.nuisance import (
    MAX_CONDITION_NUMBER,
    Dataset,
    KernelDensity,
    cond_kde_eval,
    crossfit_predict,
    empirical_quantile,
    fit_conditional_mean,
    kde_eval,
    make_split_plan,
    ols_fit,
    silverman_bandwidth,
    spd_condition_number,
)
from reference_impl import ref_local_linear_fit, ref_local_linear_predict


class TestSplitPlan:
    def test_exact_division(self):
        plan = make_split_plan(10, 5, seed=123)
        sizes = np.bincount(plan.assignment, minlength=5)
        assert list(sizes) == [2, 2, 2, 2, 2]

    def test_remainder_spread(self):
        plan = make_split_plan(11, 5, seed=9)
        sizes = sorted(np.bincount(plan.assignment, minlength=5))
        assert sizes == [2, 2, 2, 2, 3]

    def test_too_few_observations(self):
        with pytest.raises(TooFewObservations):
            make_split_plan(9, 5, seed=1)

    def test_bad_fold_count(self):
        with pytest.raises(BadFoldCount):
            make_split_plan(10, 1, seed=1)

    def test_deterministic_reconstruction(self):
        a = make_split_plan(137, 5, seed=77)
        b = make_split_plan(137, 5, seed=77)
        assert np.array_equal(a.assignment, b.assignment)

    def test_different_seeds_differ(self):
        a = make_split_plan(137, 5, seed=77)
        b = make_split_plan(137, 5, seed=78)
        assert not np.array_equal(a.assignment, b.assignment)

    @given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=60)
    def test_partition_laws(self, n_folds, seed):
        n = 2 * n_folds + seed % 17
        plan = make_split_plan(n, n_folds, seed)
        sizes = np.bincount(plan.assignment, minlength=n_folds)
        assert sizes.sum() == n
        assert sizes.max() - sizes.min() <= 1
        # every index appears exactly once across folds
        all_indices = np.concatenate([plan.fold(m) for m in range(n_folds)])
        assert np.array_equal(np.sort(all_indices), np.arange(n))


class TestOls:
    def test_two_point_line(self):
        coef = ols_fit(np.array([[1.0], [-1.0]]), np.array([2.0, 0.0]))
        assert coef == pytest.approx([1.0, 1.0], abs=1e-12)

    def test_constant_response(self):
        x = np.array([[0.1, 2.0], [1.3, -1.0], [2.0, 0.5], [-1.0, 0.7]])
        coef = ols_fit(x, np.full(4, 3.5))
        assert coef[0] == pytest.approx(3.5, abs=1e-10)
        assert coef[1:] == pytest.approx([0.0, 0.0], abs=1e-10)

    def test_collinear_with_intercept(self):
        with pytest.raises(SingularDesign):
            ols_fit(np.array([[1.0], [1.0]]), np.array([0.0, 1.0]))

    def test_condition_number_matches_svd(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(50, 8, 4))
        grams = a.transpose(0, 2, 1) @ a
        assert spd_condition_number(grams) == pytest.approx(np.linalg.cond(grams), rel=1e-8)
        singular = np.array([[2.0, 2.0], [2.0, 2.0]])
        assert not spd_condition_number(singular) <= MAX_CONDITION_NUMBER

    def test_residuals_orthogonal_to_design(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(200, 3))
        y = rng.normal(size=200) + x @ np.array([1.0, -2.0, 0.3])
        coef = ols_fit(x, y)
        design = np.column_stack([np.ones(200), x])
        resid = y - design @ coef
        for j in range(design.shape[1]):
            col = design[:, j]
            scale = max(1.0, float(np.abs(col).max()))
            assert abs(resid @ col) <= 1e-8 * 200 * scale


class TestRegressors:
    def test_one_nn_interpolates(self):
        train = Dataset(np.array([1.0, 5.0, -2.0]), np.array([[0.0], [2.0], [4.0]]))
        reg = fit_conditional_mean(train, "k-nn", n_neighbors=1)
        assert reg.predict(np.array([[2.0]]))[0] == 5.0

    def test_ols_linear_noiseless_exact(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(50, 1))
        y = 2.0 + 3.0 * x[:, 0]
        reg = fit_conditional_mean(Dataset(y, x), "ols-linear")
        assert np.max(np.abs(reg.predict(x) - y)) <= 1e-10

    def test_local_linear_sine_oracle(self):
        # held-out mean squared error against the true curve, rule-of-thumb bandwidth
        rng = np.random.default_rng(42)
        x = rng.uniform(-3.0, 3.0, size=(2000, 1))
        y = np.sin(x[:, 0])
        reg = fit_conditional_mean(Dataset(y, x), "local-linear")
        grid = np.linspace(-2.5, 2.5, 201)[:, None]
        mse = float(np.mean((reg.predict(grid) - np.sin(grid[:, 0])) ** 2))
        assert mse <= 0.01

    def test_knn_ties_go_to_lowest_index(self):
        # 12 integer-grid points, each repeated at four indices, so equal
        # distances abound; y = 2^i makes a neighbour set readable from the
        # prediction, since sums of distinct powers of two are exact
        rng = np.random.default_rng(31)
        base = rng.integers(-3, 4, size=(12, 2)).astype(float)
        x = base[np.arange(48) % 12]
        y = 2.0 ** np.arange(48)
        queries = np.vstack([base, base + 0.5, [[0.0, 0.0]]])
        tiled = np.tile(queries, (25, 1))  # more queries than one block
        for k in (1, 3, 5, 13, 47):
            reg = fit_conditional_mean(Dataset(y, x), "k-nn", n_neighbors=k)
            preds = reg.predict(tiled)
            for q, value in zip(queries, preds):
                ranked = sorted((float(np.sum((q - x[i]) ** 2)), i) for i in range(48))
                assert value == sum(2.0**i for _, i in ranked[:k]) / k
            assert np.array_equal(preds, np.tile(preds[: len(queries)], 25))

    def test_unknown_kind(self):
        train = Dataset(np.zeros(3), np.ones((3, 1)))
        with pytest.raises(OutOfRange):
            fit_conditional_mean(train, "spline")


class TestLocalLinearEdgeCases:
    """The GEMM-moment path against the query-centred loop reference."""

    @staticmethod
    def _compare(x_train, y_train, x_test, bandwidths):
        reg = fit_conditional_mean(
            Dataset(y_train, x_train), "local-linear", bandwidth=bandwidths
        )
        preds, solved = reg._predict_block(x_test)
        expected, expected_solved = ref_local_linear_fit(
            x_train, y_train, x_test, np.asarray(bandwidths, dtype=float)
        )
        assert np.array_equal(solved, expected_solved)
        # relative as well as absolute: a query far outside the design makes
        # the query-centred Gram matrix ill conditioned (about 1e7 at x = 60),
        # so both solves carry round-off proportional to the extrapolated value
        assert preds == pytest.approx(expected, rel=1e-10, abs=1e-10)
        assert np.array_equal(reg.predict(x_test), preds)
        return solved

    def test_far_out_query_needs_inflation(self):
        from fusiongain.simulation import DgpConfig, generate_dgp

        data = generate_dgp(DgpConfig(b=1.0, n=400, seed=7))
        bands = np.array([silverman_bandwidth(data.x[:, d]) for d in range(2)])
        x_test = np.array([[60.0, 0.0], [-60.0, 1.0], [0.0, 60.0]])
        u = (x_test[:, None, :] - data.x[None, :, :]) / bands
        assert np.all(np.exp(-0.5 * (u * u).sum(axis=2)).sum(axis=1) < 20.0)
        assert self._compare(data.x, data.y, x_test, bands).all()

    def test_constant_covariate_falls_back_to_local_mean(self):
        rng = np.random.default_rng(42)
        x = np.column_stack([rng.normal(size=300), np.full(300, 0.1)])
        y = x[:, 0] ** 2 + 0.3 * rng.normal(size=300)
        x_test = np.column_stack([np.linspace(-2.0, 2.0, 9), np.full(9, 0.1)])
        assert not self._compare(x, y, x_test, [0.4, 1.0]).any()

    def test_queries_at_training_points(self):
        rng = np.random.default_rng(43)
        x = rng.normal(size=(300, 3))
        y = np.cos(x[:, 0]) * x[:, 1] + 0.3 * rng.normal(size=300)
        bands = np.array([silverman_bandwidth(x[:, d]) for d in range(3)])
        assert self._compare(x, y, x[:60], bands).all()


class TestCrossfit:
    def test_constant_response(self):
        rng = np.random.default_rng(1)
        data = Dataset(np.full(30, 4.2), rng.normal(size=(30, 2)))
        plan = make_split_plan(30, 5, seed=0)
        for kind in ("ols-linear", "k-nn", "local-linear"):
            preds = crossfit_predict(data, plan, kind)
            assert preds == pytest.approx(np.full(30, 4.2), abs=1e-10)

    def test_cdf_below_minimum_gives_zero(self):
        rng = np.random.default_rng(2)
        data = Dataset(rng.normal(size=40), rng.normal(size=(40, 1)))
        plan = make_split_plan(40, 4, seed=3)
        preds = crossfit_predict(
            data, plan, "k-nn", target="cond-cdf", threshold=float(data.y.min()) - 10.0
        )
        assert np.all(preds == 0.0)

    def test_matches_reference_local_linear(self):
        # seeded synthetic dataset, cross-fitted predictions vs brute-force loop
        from fusiongain.simulation import DgpConfig, generate_dgp

        data = generate_dgp(DgpConfig(b=1.0, n=400, seed=7))
        plan = make_split_plan(400, 5, seed=7)
        preds = crossfit_predict(data, plan, "local-linear")
        expected = np.empty(400)
        for m in range(5):
            test = plan.fold(m)
            train = plan.complement(m)
            expected[test] = ref_local_linear_predict(
                data.x[train], data.y[train], data.x[test]
            )
        assert np.max(np.abs(preds - expected)) <= 1e-8

    def test_prediction_independent_of_own_observation(self):
        rng = np.random.default_rng(11)
        data = Dataset(rng.normal(size=60), rng.normal(size=(60, 2)))
        plan = make_split_plan(60, 4, seed=5)
        preds = crossfit_predict(data, plan, "local-linear")
        i = 17
        m = int(plan.assignment[i])
        train = plan.complement(m)
        reg = fit_conditional_mean(Dataset(data.y[train], data.x[train]), "local-linear")
        # re-predicting the whole fold reproduces the cross-fit entries exactly
        fold = plan.fold(m)
        refit = reg.predict(data.x[fold])
        assert np.array_equal(refit, preds[fold])
        # a lone query for observation i agrees up to batching round-off
        assert reg.predict(data.x[i][None, :])[0] == pytest.approx(preds[i], abs=1e-12)

    def test_cdf_predictions_clamped_and_monotone_on_average(self):
        rng = np.random.default_rng(3)
        data = Dataset(rng.normal(size=80), rng.normal(size=(80, 2)))
        plan = make_split_plan(80, 4, seed=1)
        levels = np.quantile(data.y, [0.2, 0.5, 0.8])
        means = []
        for mu in levels:
            preds = crossfit_predict(
                data, plan, "k-nn", target="cond-cdf", threshold=float(mu)
            )
            assert np.all((preds >= 0.0) & (preds <= 1.0))
            means.append(preds.mean())
        assert means[0] <= means[1] + 1e-10 <= means[2] + 2e-10


class TestEmpiricalQuantile:
    def test_order_statistic_median(self):
        assert empirical_quantile([3.0, 1.0, 2.0], 0.5) == 2.0

    def test_first_order_statistic(self):
        assert empirical_quantile([1.0, 2.0, 3.0, 4.0], 0.25) == 1.0

    def test_monte_carlo_median(self):
        rng = np.random.default_rng(8)
        assert abs(empirical_quantile(rng.normal(size=1000), 0.5)) <= 0.1

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            empirical_quantile([1.0, 2.0], 1.2)

    @given(
        st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=60,
                 unique=True),
        st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=300)
    def test_defining_condition(self, values, tau):
        y = np.array(values)
        q = empirical_quantile(y, tau)
        assert abs(np.mean(y < q) - tau) <= 1.0 / len(y) + 1e-12

    def test_defining_condition_on_1000_random_inputs(self):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            n = int(rng.integers(2, 200))
            tau = float(rng.uniform(0.01, 0.99))
            y = rng.normal(size=n)
            q = empirical_quantile(y, tau)
            assert abs(np.mean(y < q) - tau) <= 1.0 / n


class TestSilvermanBandwidth:
    def test_unit_sd_n100(self):
        base = np.linspace(-1.0, 1.0, 100)
        sample = base / np.std(base, ddof=1)  # sd exactly 1, IQR/1.34 > 1
        assert np.percentile(sample, 75) - np.percentile(sample, 25) > 1.34
        h = silverman_bandwidth(sample)
        assert h == pytest.approx(0.42197, abs=1e-4)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(4)
        sample = rng.normal(size=500)
        assert silverman_bandwidth(3.7 * sample) == pytest.approx(
            3.7 * silverman_bandwidth(sample), rel=1e-12
        )

    def test_constant_sample(self):
        with pytest.raises(ZeroDispersion):
            silverman_bandwidth(np.full(20, 1.0))


class TestKde:
    def test_single_observation_at_mode(self):
        kd = KernelDensity(np.array([0.0]), 1.0)
        assert kde_eval(kd, 0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-12)

    def test_far_tail(self):
        kd = KernelDensity(np.array([0.0, 0.5]), 0.3)
        assert kde_eval(kd, 0.5 + 10 * 0.3) <= 1e-8

    def test_monte_carlo_standard_normal(self):
        rng = np.random.default_rng(12)
        sample = rng.normal(size=5000)
        kd = KernelDensity(sample, silverman_bandwidth(sample))
        assert kde_eval(kd, 0.0) == pytest.approx(0.3989, abs=0.02)

    def test_normalization_by_quadrature(self):
        rng = np.random.default_rng(13)
        sample = rng.normal(size=400)
        h = silverman_bandwidth(sample)
        kd = KernelDensity(sample, h)
        lo = sample.mean() - 10 * h - 4.0
        hi = sample.mean() + 10 * h + 4.0
        grid = np.linspace(lo, hi, 4001)
        values = np.array([kde_eval(kd, g) for g in grid])
        assert np.trapezoid(values, grid) == pytest.approx(1.0, abs=1e-3)


class TestCondKde:
    def test_single_pair_at_its_point(self):
        value = cond_kde_eval(
            np.array([[1.0]]), np.array([2.0]), np.array([0.5]), 0.25, [1.0], 2.0
        )
        assert value == pytest.approx(1.0 / (0.25 * math.sqrt(2 * math.pi)), abs=1e-12)

    def test_far_tail_in_y(self):
        value = cond_kde_eval(
            np.array([[1.0]]), np.array([2.0]), np.array([0.5]), 0.25, [1.0], 2.0 + 12 * 0.25
        )
        assert value <= 1e-8

    def test_independence_oracle(self):
        # with Y shuffled relative to X the conditional density should match
        # the marginal one at the median
        rng = np.random.default_rng(21)
        x = rng.normal(size=(5000, 1))
        y = rng.normal(size=5000)
        h_y = silverman_bandwidth(y)
        h_x = np.array([silverman_bandwidth(x[:, 0])])
        median = float(np.median(y))
        marginal = kde_eval(KernelDensity(y, h_y), median)
        conditional = cond_kde_eval(x, y, h_x, h_y, [0.3], median)
        assert conditional == pytest.approx(marginal, abs=0.05)
