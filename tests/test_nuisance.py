import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import trapezoid

from fusiongain.errors import (
    EmptyNeighborhood,
    OutOfRange,
    SingularDesign,
    ZeroDispersion,
)
import fusiongain
from fusiongain.nuisance import (
    BLOCK_BYTES,
    MAX_CONDITION_NUMBER,
    MIN_SPREAD,
    N_FOLDS,
    Dataset,
    KnnRegressor,
    LocalLinearRegressor,
    _GaussianKernel,
    _fold_groups,
    _quartiles,
    _query_blocks,
    cholesky_gate,
    cond_kde_profile,
    crossfit_predict,
    default_neighbor_count,
    empirical_quantile,
    equilibrated_solve,
    fit_conditional_mean,
    kde_eval,
    make_split_plan,
    ols_fit,
    silverman_bandwidth,
    split_halves,
    unit_scaled,
)
from fusiongain.mean_utility import residual_core
from fusiongain.quantile_utility import _indicator
from reference_impl import (
    ref_floored_weights,
    ref_kernel_block,
    ref_knn_predict,
    ref_local_linear_fit,
    ref_local_linear_predict,
    ref_silverman,
)


class TestDataset:
    def test_caller_arrays_stay_writable_and_apart(self):
        y, x = np.zeros(20), np.zeros((20, 2))
        data = Dataset(y, x)
        y[0] = 1.0
        x[0, 0] = 1.0
        assert data.y[0] == 0.0 and data.x[0, 0] == 0.0
        assert not (data.y.flags.writeable or data.x.flags.writeable)


class TestSplitPlan:
    def test_exact_division(self):
        plan = make_split_plan(10, seed=123)
        sizes = np.bincount(plan, minlength=5)
        assert list(sizes) == [2, 2, 2, 2, 2]

    def test_remainder_spread(self):
        plan = make_split_plan(11, seed=9)
        sizes = sorted(np.bincount(plan, minlength=5))
        assert sizes == [2, 2, 2, 2, 3]

    def test_halves(self):
        data = Dataset(np.arange(5.0), np.arange(10.0).reshape(5, 2))
        half, rest = split_halves(data.n)
        assert data.y[half].tolist() == [0.0, 1.0, 2.0]
        assert data.y[rest].tolist() == [3.0, 4.0]
        assert np.array_equal(np.vstack([data.x[half], data.x[rest]]), data.x)
        # the two selectors partition 0..n-1, the first ceil(n/2) rows first
        for n in range(2, 121):
            half, rest = split_halves(n)
            rows = np.arange(n)
            assert rows[half].size == -(-n // 2)
            assert np.array_equal(np.concatenate([rows[half], rows[rest]]), rows)

    def test_deterministic_reconstruction(self):
        a = make_split_plan(137, seed=77)
        b = make_split_plan(137, seed=77)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = make_split_plan(137, seed=77)
        b = make_split_plan(137, seed=78)
        assert not np.array_equal(a, b)

    @given(st.integers(min_value=2 * N_FOLDS, max_value=120),
           st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=60)
    def test_partition_laws(self, n, seed):
        plan = make_split_plan(n, seed)
        sizes = np.bincount(plan, minlength=N_FOLDS)
        assert len(sizes) == N_FOLDS
        assert sizes.sum() == n
        assert sizes.max() - sizes.min() <= 1
        # every index appears exactly once across folds
        all_indices = np.concatenate([np.flatnonzero(plan == m) for m in range(N_FOLDS)])
        assert np.array_equal(np.sort(all_indices), np.arange(n))


class TestUnitScaled:
    def test_columns_scaled_exactly_by_powers_of_two(self):
        rng = np.random.default_rng(3)
        y = rng.normal(size=40) * 1e-200
        x = np.asfortranarray(rng.normal(size=(40, 3)) * [1e100, 1.0, 1e-100])
        scaled = unit_scaled(Dataset(y, x, ("a", "b", "c")))
        for raw, out in zip([y] + list(x.T), [scaled.y] + list(scaled.x.T)):
            assert 0.5 <= np.abs(out).max() < 1.0
            ratio = raw / out
            assert np.all(ratio == ratio[0]) and np.frexp(ratio[0])[0] == 0.5
        assert scaled.x.flags.f_contiguous and scaled.column_names == ("a", "b", "c")

    def test_common_scale_is_the_largest_columns(self):
        x = np.column_stack([np.linspace(-3.0, 3.0, 20), np.linspace(-1e3, 1e3, 20)])
        scaled = unit_scaled(Dataset(np.arange(20.0), x), common_x=True)
        assert np.array_equal(scaled.x / x, np.full_like(x, 2.0**-10))

    def test_constant_and_binary_columns_pass(self):
        x = np.column_stack([np.full(30, 7.0), (np.arange(30) < 1).astype(float)])
        scaled = unit_scaled(Dataset(np.full(30, -2.0), x))
        assert np.array_equal(scaled.y, np.full(30, -0.5))
        assert np.array_equal(scaled.x, np.column_stack([np.full(30, 0.875), x[:, 1] * 0.5]))

    def test_spread_at_the_bound(self):
        # IQR 0: the smallest nonzero distance from the median is the spread
        x = np.zeros(21)
        x[0] = 0.5
        x[1] = MIN_SPREAD
        unit_scaled(Dataset(np.arange(21.0), x.copy()))
        x[1] = 0.5 * MIN_SPREAD
        with pytest.raises(OutOfRange, match="covariate 1: row 1 lies so far"):
            unit_scaled(Dataset(np.arange(21.0), x))

    def test_small_column_under_the_common_scale(self):
        x = np.column_stack([np.linspace(-1.0, 1.0, 20), np.linspace(-1e-40, 1e-40, 20)])
        unit_scaled(Dataset(np.arange(20.0), x), common_x=False)
        with pytest.raises(OutOfRange, match="W is too small next to the largest covariate"):
            unit_scaled(Dataset(np.arange(20.0), x, ("S", "W")), common_x=True)
        # a column that the common scale flushes to zero is not constant
        flushed = x * [1e300, 1e-280]
        with pytest.raises(OutOfRange, match="covariate 2 is too small"):
            unit_scaled(Dataset(np.arange(20.0), flushed), common_x=True)


class TestOls:
    def test_two_point_line(self):
        coef = ols_fit(np.array([[1.0], [-1.0]]), np.array([[2.0], [0.0]]))
        assert coef[:, 0] == pytest.approx([1.0, 1.0], abs=1e-12)

    def test_constant_response(self):
        x = np.array([[0.1, 2.0], [1.3, -1.0], [2.0, 0.5], [-1.0, 0.7]])
        coef = ols_fit(x, np.full((4, 1), 3.5))[:, 0]
        assert coef[0] == pytest.approx(3.5, abs=1e-10)
        assert coef[1:] == pytest.approx([0.0, 0.0], abs=1e-10)

    def test_collinear_with_intercept(self):
        with pytest.raises(SingularDesign):
            ols_fit(np.array([[1.0], [1.0]]), np.array([[0.0], [1.0]]))

    def test_column_units_do_not_move_the_gate(self):
        # raw condition number about 1e12: only the equilibrated matrix passes
        x = np.random.default_rng(9).normal(size=(400, 2))
        y = (x @ np.array([0.7, -1.2]) + 0.3)[:, None]
        scaled = x * np.array([1000.0, 0.001])
        assert np.linalg.cond(np.column_stack([np.ones(400), scaled]).T
                              @ np.column_stack([np.ones(400), scaled])) > 1e11
        coef, coef_scaled = ols_fit(x, y), ols_fit(scaled, y)
        assert coef_scaled[:, 0] * [1.0, 1000.0, 0.001] == pytest.approx(coef[:, 0], rel=1e-9)

    def test_zero_column_is_singular(self):
        x = np.column_stack([np.random.default_rng(2).normal(size=20), np.zeros(20)])
        design = np.column_stack([np.ones(20), x])
        assert equilibrated_solve(design.T @ design, design.T @ np.ones((20, 1))) is None
        with pytest.raises(SingularDesign):
            ols_fit(x, np.ones((20, 1)))

    @pytest.mark.parametrize("r", [1, 2, 3, 6, 11])
    def test_solution_and_inverse_match_lapack(self, r):
        # column scales from 1e-4 to 1e4 on a well-conditioned correlation
        rng = np.random.default_rng(r)
        a = rng.normal(size=(4 * r + 10, r)) * 10.0 ** rng.uniform(-4, 4, size=r)
        gram, rhs = a.T @ a, rng.normal(size=(r, 1))
        solution, inverse = equilibrated_solve(gram, rhs)
        assert solution == pytest.approx(np.linalg.solve(gram, rhs), rel=1e-9)
        assert inverse == pytest.approx(np.linalg.inv(gram), rel=1e-9)
        assert np.array_equal(inverse, inverse.T)

    def test_residuals_orthogonal_to_design(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(200, 3))
        y = rng.normal(size=200) + x @ np.array([1.0, -2.0, 0.3])
        coef = ols_fit(x, y[:, None])[:, 0]
        design = np.column_stack([np.ones(200), x])
        resid = y - design @ coef
        for j in range(design.shape[1]):
            col = design[:, j]
            scale = max(1.0, float(np.abs(col).max()))
            assert abs(resid @ col) <= 1e-8 * 200 * scale


def test_least_squares_solve_from_the_gate_factor(monkeypatch):
    # OLS and linreg take G^-1 rhs and G^-1 from the factor that passed
    # the condition gate, so no second LAPACK solve or inverse runs
    from fusiongain.linreg_utility import assess_linreg
    from fusiongain.mean_utility import assess_mean
    from fusiongain.quantile_utility import assess_quantile
    from fusiongain.simulation import DgpConfig, generate_dgp

    def refuse(*args, **kwargs):
        raise AssertionError("a Gram matrix was factored a second time")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    monkeypatch.setattr(np.linalg, "inv", refuse)
    data = generate_dgp(DgpConfig(b=0.5, n=200, seed=6))
    assert np.isfinite(assess_mean(data, nu=0.5, regressor="ols-linear").gamma_hat)
    assert np.isfinite(assess_quantile(data, nu=0.5, regressor="ols-linear").gamma_hat)
    assert np.isfinite(assess_linreg(data, nu=0.5).gamma_hat)


class TestConditionGate:
    """``cholesky_gate``: one batched Cholesky, and the bound ||G||_F ||L^-1||_F^2."""

    @staticmethod
    def _batch(rng, r, log_cond, rank_deficit):
        """Gram matrices of size r: random eigenvectors, an overall scale, and
        spectra spread over up to 10^log_cond, plus rank-deficient products
        B'B and a matrix with an exactly zero row and column."""
        grams = []
        for u in np.linspace(0.0, 1.0, 8):
            q, _ = np.linalg.qr(rng.normal(size=(r, r)))
            eig = 10.0 ** (-u * log_cond * np.sort(rng.uniform(size=r)))
            eig[0], eig[-1] = 1.0, 10.0 ** (-u * log_cond)
            grams.append(10.0 ** rng.uniform(-8, 8) * (q * eig) @ q.T)
        for _ in range(4):
            b = rng.normal(size=(r - 1 - rank_deficit, r)) * 10.0 ** rng.uniform(-3, 3, size=r)
            grams.append(b.T @ b)
        zero = grams[0].copy()
        zero[r // 2, :] = zero[:, r // 2] = 0.0
        grams.append(zero)
        grams = np.array(grams)
        return 0.5 * (grams + grams.transpose(0, 2, 1))

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), r=st.integers(2, 11),
           log_cond=st.floats(0.0, 14.0), rank_deficit=st.integers(0, 1))
    def test_accepts_nothing_past_the_limit(self, seed, r, log_cond, rank_deficit):
        grams = self._batch(np.random.default_rng(seed), r, log_cond, rank_deficit)
        passes, _, _ = cholesky_gate(grams, np.ones(grams.shape[:-1] + (1,)))
        # at the limit, a condition number is only known to about r * limit * eps
        # relative, in the Cholesky factor and in the SVD alike: there rounding
        # decides a tie
        tie = r * MAX_CONDITION_NUMBER * np.finfo(float).eps
        assert np.all(np.linalg.cond(grams[passes]) <= MAX_CONDITION_NUMBER * (1.0 + tie))
        assert not passes[8:].any()
        # not vacuous: the bound exceeds the condition number by at most r^1.5
        well = np.linalg.cond(grams[:8]) <= MAX_CONDITION_NUMBER / 100.0
        assert passes[:8][well].all()

    def test_batch_decisions_match_single_matrices(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(6, 30, 4))
        grams = a.transpose(0, 2, 1) @ a
        grams[2, 3, :] = grams[2, :, 3] = 0.0  # exactly singular: the batch Cholesky raises
        rhs = rng.normal(size=(6, 4, 1))
        passes, l_inv, z = cholesky_gate(grams, rhs)
        assert passes.tolist() == [True, True, False, True, True, True]
        for i in range(6):
            alone, l_inv_alone, z_alone = cholesky_gate(grams[i : i + 1], rhs[i : i + 1])
            assert alone[0] == passes[i]
            if passes[i]:
                assert np.array_equal(l_inv_alone[0], l_inv[i])
                assert np.array_equal(z_alone[0], z[i])
                # L^-T L^-1 rhs solves the system
                assert l_inv[i].T @ z[i] == pytest.approx(np.linalg.solve(grams[i], rhs[i]),
                                                          rel=1e-10)


class TestRegressors:
    def test_one_nn_interpolates(self):
        reg = KnnRegressor(np.array([[0.0], [2.0], [4.0]]), np.array([[1.0], [5.0], [-2.0]]), 1)
        assert reg.predict(np.array([[2.0]]))[0, 0] == 5.0

    def test_ols_linear_noiseless_exact(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(50, 1))
        y = 2.0 + 3.0 * x[:, 0]
        reg = fit_conditional_mean(x, y[:, None], "ols-linear")
        assert np.max(np.abs(reg.predict(x)[:, 0] - y)) <= 1e-10

    def test_local_linear_sine_oracle(self):
        # held-out mean squared error against the true curve, rule-of-thumb bandwidth
        rng = np.random.default_rng(42)
        x = rng.uniform(-3.0, 3.0, size=(2000, 1))
        y = np.sin(x[:, 0])
        reg = fit_conditional_mean(x, y[:, None], "local-linear")
        grid = np.linspace(-2.5, 2.5, 201)[:, None]
        mse = float(np.mean((reg.predict(grid)[:, 0] - np.sin(grid[:, 0])) ** 2))
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
            reg = KnnRegressor(x, y[:, None], k)
            preds = reg.predict(tiled)[:, 0]
            for q, value in zip(queries, preds):
                ranked = sorted((float(np.sum((q - x[i]) ** 2)), i) for i in range(48))
                assert value == sum(2.0**i for _, i in ranked[:k]) / k
            assert np.array_equal(preds, np.tile(preds[: len(queries)], 25))

    def test_unknown_kind(self):
        with pytest.raises(OutOfRange):
            fit_conditional_mean(np.ones((3, 1)), np.zeros((3, 1)), "spline")


class TestLocalLinearEdgeCases:
    """The GEMM-moment path against the query-centred loop reference."""

    @staticmethod
    def _compare(x_train, y_train, x_test, bandwidths):
        reg = LocalLinearRegressor(x_train, y_train[:, None], bandwidths)
        preds, solved = reg._predict_block(x_test)
        expected, expected_solved = ref_local_linear_fit(x_train, y_train, x_test, bandwidths)
        assert np.array_equal(solved, expected_solved)
        # relative as well as absolute: a query far outside the design makes
        # the query-centred Gram matrix ill conditioned (about 1e7 at x = 60),
        # so both solves carry round-off proportional to the extrapolated value
        assert preds[:, 0] == pytest.approx(expected, rel=1e-10, abs=1e-10)
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
        assert not self._compare(x, y, x_test, np.array([0.4, 1.0])).any()

    def test_singular_query_leaves_its_block_alone(self):
        # cluster A lies on x2 = 0, and cluster B, 200 bandwidths away in x1,
        # has dyadic x2 values that sum to exactly zero.  A query in A sees
        # only A, so its Gram matrix has an exactly zero row and column, and
        # the block's batched Cholesky raises; the queries in B still solve.
        rng = np.random.default_rng(12)
        x2_b = np.repeat([-1.0, -0.5, 0.5, 1.0], 15)
        x = np.vstack([
            np.column_stack([rng.normal(size=60), np.zeros(60)]),
            np.column_stack([200.0 + rng.normal(size=60), x2_b]),
        ])
        y = np.sin(x[:, 0]) + x[:, 1] + 0.1 * rng.normal(size=120)
        x_test = np.array([[200.1, 0.2], [199.5, -0.3], [0.1, 0.0], [200.4, 0.6]])
        solved = self._compare(x, y, x_test, np.array([1.0, 1.0]))
        assert solved.tolist() == [True, True, False, True]
        reg = LocalLinearRegressor(x, y[:, None], np.array([1.0, 1.0]))
        preds, _ = reg._predict_block(x_test)
        # the weights GEMM's last bits depend on the block size, and moving
        # the moments 100 bandwidths from the training mean amplifies them
        for q in range(4):
            alone, solved_alone = reg._predict_block(x_test[q : q + 1])
            assert solved_alone[0] == solved[q]
            assert alone[0] == pytest.approx(preds[q], rel=1e-10, abs=1e-10)

    def test_duplicated_covariate_falls_back_everywhere(self):
        # S copied as a third column: every local Gram matrix is singular
        rng = np.random.default_rng(44)
        x = rng.normal(size=(300, 2))
        y = x.sum(axis=1) + 0.3 * rng.normal(size=300)
        x = np.column_stack([x, x[:, 0]])
        bands = np.array([silverman_bandwidth(x[:, d]) for d in range(3)])
        assert not self._compare(x, y, x[:40], bands).any()

    def test_queries_at_training_points(self):
        rng = np.random.default_rng(43)
        x = rng.normal(size=(300, 3))
        y = np.cos(x[:, 0]) * x[:, 1] + 0.3 * rng.normal(size=300)
        bands = np.array([silverman_bandwidth(x[:, d]) for d in range(3)])
        assert self._compare(x, y, x[:60], bands).all()


class TestFlooredWeights:
    """The start-level floor against the loop that recomputes every level, bit for bit."""

    @staticmethod
    def _regressor(n_train, p, seed):
        x = np.random.default_rng(seed).normal(size=(n_train, p))
        return fit_conditional_mean(x, x.sum(axis=1, keepdims=True), "local-linear")

    @staticmethod
    def _assert_bitwise(reg, x_test):
        w = reg._floored_weights(x_test)
        assert np.array_equal(w, ref_floored_weights(reg.x_train, reg.bandwidths, x_test))
        return w

    @pytest.mark.parametrize("p", [2, 10])
    def test_block_of_400_against_1600(self, p):
        reg = self._regressor(1600, p, seed=p)
        x_test = np.random.default_rng(100 + p).normal(size=(400, p))
        w = self._assert_bitwise(reg, x_test)
        assert np.all(w.sum(axis=1) >= LocalLinearRegressor.MIN_EFFECTIVE_WEIGHT)

    @pytest.mark.parametrize("scale", [0.05, 0.3, 3.0])
    def test_bandwidth_scales(self, scale):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(500, 3))
        reg = LocalLinearRegressor(x, x[:, :1], scale * np.array([0.5, 1.0, 2.0]))
        self._assert_bitwise(reg, rng.normal(size=(120, 3)))

    def test_far_query_skips_levels(self):
        reg = self._regressor(1600, 2, seed=3)
        x_test = np.array([[60.0, 0.0], [0.0, 0.5]])
        # even n_train times the largest weight misses the floor at h and 2h
        for factor in (1.0, 2.0):
            far = ref_kernel_block(reg.x_train, reg.bandwidths * factor, x_test)[0]
            assert reg.x_train.shape[0] * far.max() < LocalLinearRegressor.MIN_EFFECTIVE_WEIGHT
        self._assert_bitwise(reg, x_test)

    @staticmethod
    def _cluster():
        # 100 training points within about 1e-6 of the origin: seen from a
        # query well outside, every weight in a row is nearly the same
        x = 1e-6 * np.random.default_rng(8).normal(size=(100, 2))
        return x, x[:, :1]

    def test_equal_weights_pass_at_the_first_admitted_level(self):
        # the row sum nearly reaches n_train times the largest weight, so the
        # first level the bound admits is the level that passes
        x, y = self._cluster()
        reg = LocalLinearRegressor(x, y, np.array([1.0, 1.0]))
        x_test = np.array([[3.3, 0.0]])
        assert 100 * ref_kernel_block(x, reg.bandwidths, x_test).max() < 1.0
        w = self._assert_bitwise(reg, x_test)
        assert np.array_equal(w, ref_kernel_block(x, 2.0 * reg.bandwidths, x_test))
        assert 20.0 <= w.sum() < 30.0

    def test_inflation_cap(self):
        x, _ = self._cluster()
        x = np.vstack([x, [[0.2, 0.0]]])
        reg = LocalLinearRegressor(x, x[:, :1], np.array([1e-6, 1e-6]))
        # the first three queries would pass one level past the cap.  The first
        # sits on the lone training point and climbs from level 0, the second
        # (3 bandwidths from it) from level 1; the third starts at the cap.
        # The fourth underflows to zero weights even there.
        x_test = np.array([[0.2, 0.0], [0.2, 3e-6], [-0.2, 0.0], [1e6, -1e6]])
        cap = 2.0**LocalLinearRegressor.MAX_INFLATIONS
        capped = ref_kernel_block(x, reg.bandwidths * cap, x_test)
        beyond = ref_kernel_block(x, reg.bandwidths * cap * 2.0, x_test)
        assert np.all(capped[:3].sum(axis=1) < 20.0)
        assert np.all(beyond[:3].sum(axis=1) >= 20.0)
        w = self._assert_bitwise(reg, x_test)
        assert np.array_equal(w, capped)
        assert not w[3].any()
        # the first query alone: a block in which every row stays pending
        self._assert_bitwise(reg, x_test[:1])

    @pytest.mark.parametrize("n_train", [5, 20])
    def test_tiny_training_sample_ends_at_the_last_level(self, n_train):
        # weights of at most 1 each cannot sum past the floor of 20, so every
        # query climbs to the cap by the same rule as in a larger fit
        reg = self._regressor(n_train, 2, seed=n_train)
        x_test = np.array([[0.0, 0.0], [8.0, -8.0]])
        w = self._assert_bitwise(reg, x_test)
        cap = 2.0**LocalLinearRegressor.MAX_INFLATIONS
        assert np.array_equal(w, ref_kernel_block(reg.x_train, reg.bandwidths * cap, x_test))

    def test_queries_at_training_points(self):
        reg = self._regressor(300, 3, seed=6)
        w = self._assert_bitwise(reg, reg.x_train[:50])
        assert np.all(w.max(axis=1) > 1.0 - 1e-9)  # up to bilinear-form cancellation

    def test_gaussian_weights_form(self):
        # the single kernel path that cond_kde_profile also uses
        rng = np.random.default_rng(7)
        x, x_test, bands = rng.normal(size=(300, 4)), rng.normal(size=(70, 4)), np.full(4, 0.4)
        log_w = _GaussianKernel(x, bands).log_weights(x_test, np.empty((70, 300)))
        assert np.array_equal(np.exp(log_w), ref_kernel_block(x, bands, x_test))


def _blocking_sample(p, n, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, p))
    return Dataset(np.sin(x[:, 0]) + x.sum(axis=1) + 0.5 * rng.normal(size=n), x)


def _fold_through_kernel_paths(data):
    """Fold 0 of a 5-fold plan through the local-linear, k-NN and
    conditional-KDE paths, concatenated."""
    plan = make_split_plan(data.n, seed=1)
    train, test = np.flatnonzero(plan != 0), data.x[np.flatnonzero(plan == 0)]
    y_train = data.y[train]
    local_linear = fit_conditional_mean(data.x[train], y_train[:, None], "local-linear")
    return np.concatenate([
        local_linear.predict(test)[:, 0],
        fit_conditional_mean(data.x[train], y_train[:, None], "k-nn").predict(test)[:, 0],
        cond_kde_profile(data.x[train], y_train, local_linear.bandwidths,
                         silverman_bandwidth(y_train), test, float(np.median(y_train))),
    ])


class TestBlocking:
    """The kernel paths over several budget-sized query blocks per fold, and
    one workspace reused across folds of different sizes."""

    @staticmethod
    def _uneven(p):
        # 1003 rows in 5 folds: folds of 201 and 200 queries against about
        # 800 training rows, which the block budget splits in two
        data = _blocking_sample(p, 1003, seed=p)
        plan = make_split_plan(1003, seed=p)
        for m in range(5):
            fold, complement = np.flatnonzero(plan == m), np.flatnonzero(plan != m)
            assert len(list(_query_blocks(fold.size, complement.size))) >= 2
        return data, plan

    @pytest.mark.parametrize("p", [2, 10])
    def test_knn_bitwise_reference(self, p):
        data, plan = self._uneven(p)
        preds = crossfit_predict(data.x, data.y[:, None], "k-nn", seed=p)[:, 0]
        for m in range(5):
            test, train = np.flatnonzero(plan == m), np.flatnonzero(plan != m)
            # every ninth query of each fold keeps the loop reference quick
            check = test[m::9]
            expected = ref_knn_predict(data.x[train], data.y[train], data.x[check])
            assert np.array_equal(preds[check], expected)

    @pytest.mark.parametrize("p", [2, 10])
    def test_local_linear_blocks_bitwise_floor(self, p, monkeypatch):
        data, plan = self._uneven(p)
        train, test = np.flatnonzero(plan != 1), np.flatnonzero(plan == 1)
        reg = fit_conditional_mean(data.x[train], data.y[train, None], "local-linear")
        blocks = []
        floored = reg._floored_weights

        def record(xq):
            w = floored(xq)
            blocks.append((xq.copy(), w.copy()))
            return w

        monkeypatch.setattr(reg, "_floored_weights", record)
        preds = reg.predict(data.x[test])[:, 0]
        assert len(blocks) >= 2
        assert np.array_equal(np.vstack([xq for xq, _ in blocks]), data.x[test])
        for xq, w in blocks:
            assert np.array_equal(w, ref_floored_weights(reg.x_train, reg.bandwidths, xq))
        expected = ref_local_linear_predict(data.x[train], data.y[train], data.x[test])
        assert np.max(np.abs(preds - expected)) <= 1e-8

    @pytest.mark.parametrize("p", [2, 10])
    def test_cond_kde_many_blocks_match_one(self, p):
        data = _blocking_sample(p, 1003, seed=20 + p)
        assert len(list(_query_blocks(1003, 1003))) >= 8
        h_x = np.array([silverman_bandwidth(data.x[:, d]) for d in range(p)])
        h_y = silverman_bandwidth(data.y)
        y_point = float(np.median(data.y))
        profile = cond_kde_profile(data.x, data.y, h_x, h_y, data.x, y_point)
        w = ref_kernel_block(data.x, h_x, data.x)
        zy = (y_point - data.y) / h_y
        y_kernel = np.exp(-0.5 * zy * zy) / (h_y * math.sqrt(2.0 * math.pi))
        assert profile == pytest.approx((w @ y_kernel) / w.sum(axis=1), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("p", [2, 10])
    def test_workspace_reuse_matches_fresh_process(self, p, tmp_path):
        large, small = _blocking_sample(p, 1003, seed=p), _blocking_sample(p, 60, seed=p)
        first = _fold_through_kernel_paths(large)
        _fold_through_kernel_paths(small)
        again = _fold_through_kernel_paths(large)
        out = tmp_path / "fresh.npy"
        script = (
            "import sys, numpy as np\n"
            "from test_nuisance import _blocking_sample, _fold_through_kernel_paths\n"
            f"np.save(sys.argv[1], _fold_through_kernel_paths(_blocking_sample({p}, 1003, {p})))\n"
        )
        paths = [str(Path(fusiongain.__file__).parents[1]), str(Path(__file__).parent)]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
        subprocess.run([sys.executable, "-c", script, str(out)], env=env, check=True,
                       timeout=120)
        fresh = np.load(out)
        assert np.array_equal(first, fresh)
        assert np.array_equal(again, fresh)


def test_threads_keep_their_own_workspace():
    # more threads than cores, switching often, against the serial result:
    # a workspace shared between threads would mix their blocks
    data = _blocking_sample(2, 1003, seed=5)
    expected = _fold_through_kernel_paths(data)
    results = [None] * 4

    def run(i):
        results[i] = _fold_through_kernel_paths(data)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for result in results:
        assert np.array_equal(result, expected)


def _traced_peak(fn):
    """Peak bytes allocated while ``fn`` runs in a new thread, whose kernel
    workspace starts empty and so is counted."""
    peak = []

    def run():
        tracemalloc.start()
        try:
            fn()
            peak.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    return peak[0]


def test_kernel_memory_flat_in_training_size():
    # A query block's (queries x training) temporaries fill a fixed byte
    # budget, so growing the training sample 8x leaves the peak to the
    # O(n p) copies of the inputs (about 0.7 MB at n = 16000, p = 2) on top
    # of the three budget slabs.
    bound = 6 * 2**20
    p, queries = 2, 256
    for n_train in (2000, 16000):
        rng = np.random.default_rng(n_train)
        x, xq = rng.normal(size=(n_train, p)), rng.normal(size=(queries, p))
        y = x.sum(axis=1, keepdims=True)
        bands = np.full(p, 0.3)
        local_linear = LocalLinearRegressor(x, y, bands)
        knn = KnnRegressor(x, y, default_neighbor_count(n_train))
        for path in (lambda: local_linear.predict(xq), lambda: knn.predict(xq),
                     lambda: cond_kde_profile(x, y[:, 0], bands, 0.3, xq, 0.0)):
            assert _traced_peak(path) < bound


def test_kernel_kinds_share_three_slabs():
    # k-NN, local-linear and the conditional KDE draw from the same three
    # workspace roles, so one thread that runs all three holds three budget
    # slabs, plus under 1 MiB for k-NN's candidate mask, the block's index
    # arrays and the outputs (about 3.5 MiB here); a slab per kind and role
    # would hold seven (about 7.5 MiB)
    bound = 3 * BLOCK_BYTES + 2**20
    p, queries, n_train = 2, 256, 2000
    rng = np.random.default_rng(n_train)
    x, xq = rng.normal(size=(n_train, p)), rng.normal(size=(queries, p))
    y = x.sum(axis=1, keepdims=True)
    bands = np.full(p, 0.3)
    local_linear = LocalLinearRegressor(x, y, bands)
    knn = KnnRegressor(x, y, default_neighbor_count(n_train))

    def every_kind():
        local_linear.predict(xq)
        knn.predict(xq)
        cond_kde_profile(x, y[:, 0], bands, 0.3, xq, 0.0)

    assert _traced_peak(every_kind) < bound


class TestCrossfit:
    def test_constant_response(self):
        rng = np.random.default_rng(1)
        x, z = rng.normal(size=(30, 2)), np.full((30, 1), 4.2)
        for kind in ("ols-linear", "k-nn", "local-linear"):
            preds = crossfit_predict(x, z, kind, seed=0)
            assert preds == pytest.approx(z, abs=1e-10)

    def test_cdf_below_minimum_gives_zero(self):
        rng = np.random.default_rng(2)
        y, x = rng.normal(size=40), rng.normal(size=(40, 1))
        preds, sq = residual_core(x, _indicator(y, (float(y.min()) - 10.0,)), "k-nn", 3,
                                  (0.0, 1.0))
        assert np.all(preds == 0.0) and np.all(sq == 0.0)

    def test_matches_reference_local_linear(self):
        # seeded synthetic dataset, cross-fitted predictions vs brute-force loop
        from fusiongain.simulation import DgpConfig, generate_dgp

        data = generate_dgp(DgpConfig(b=1.0, n=400, seed=7))
        plan = make_split_plan(400, seed=7)
        preds = crossfit_predict(data.x, data.y[:, None], "local-linear", seed=7)[:, 0]
        expected = np.empty(400)
        for m in range(5):
            test = np.flatnonzero(plan == m)
            train = np.flatnonzero(plan != m)
            expected[test] = ref_local_linear_predict(
                data.x[train], data.y[train], data.x[test]
            )
        assert np.max(np.abs(preds - expected)) <= 1e-8

    def test_prediction_independent_of_own_observation(self):
        rng = np.random.default_rng(11)
        z, x = rng.normal(size=(60, 1)), rng.normal(size=(60, 2))
        plan = make_split_plan(60, seed=5)
        preds = crossfit_predict(x, z, "local-linear", seed=5)
        i = 17
        m = int(plan[i])
        train = np.flatnonzero(plan != m)
        reg = fit_conditional_mean(x[train], z[train], "local-linear")
        # re-predicting the whole fold reproduces the cross-fit entries exactly
        fold = np.flatnonzero(plan == m)
        refit = reg.predict(x[fold])
        assert np.array_equal(refit, preds[fold])
        # a lone query for observation i agrees up to batching round-off
        assert reg.predict(x[i][None, :])[0, 0] == pytest.approx(preds[i, 0], abs=1e-12)

    def test_cdf_predictions_clamped_and_monotone_on_average(self):
        rng = np.random.default_rng(3)
        y, x = rng.normal(size=80), rng.normal(size=(80, 2))
        levels = np.quantile(y, [0.2, 0.5, 0.8])
        means = []
        for mu in levels:
            preds, _ = residual_core(x, _indicator(y, (float(mu),)), "k-nn", 1, (0.0, 1.0))
            assert np.all((preds >= 0.0) & (preds <= 1.0))
            means.append(preds.mean())
        assert means[0] <= means[1] + 1e-10 <= means[2] + 2e-10


class TestFoldGroups:
    """Cross-fitting in fold groups against fold-by-fold single fits, bit for bit."""

    @staticmethod
    def _sample(n, p, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, p))
        x[0] = 40.0  # a far tail: its query inflates the bandwidths
        return x, (np.sin(x[:, 0]) + x.sum(axis=1) + 0.5 * rng.normal(size=n))[:, None]

    @staticmethod
    def _fold_by_fold(x, z, seed):
        folds = make_split_plan(len(x), seed)
        expected = np.empty(z.shape)
        for m in range(N_FOLDS):
            test, train = np.flatnonzero(folds == m), np.flatnonzero(folds != m)
            expected[test] = fit_conditional_mean(x[train], z[train], "local-linear").predict(
                x[test])
        return expected

    @pytest.mark.parametrize("p", [1, 2, 10])
    @pytest.mark.parametrize("n", [60, 61, 62, 63, 64, 1003])
    def test_fold_groups_bitwise_single_fits(self, n, p):
        x, z = self._sample(n, p, seed=n + p)
        assert np.array_equal(crossfit_predict(x, z, "local-linear", seed=p),
                              self._fold_by_fold(x, z, seed=p))

    def test_fold_groups_bitwise_single_fits_when_every_query_falls_back(self):
        # S copied as a third column: every local Gram matrix is singular
        rng = np.random.default_rng(44)
        x = rng.normal(size=(62, 2))
        z = (x.sum(axis=1) + 0.3 * rng.normal(size=62))[:, None]
        x = np.column_stack([x, x[:, 0]])
        folds = make_split_plan(62, seed=1)
        train = np.flatnonzero(folds != 0)
        _, solved = fit_conditional_mean(x[train], z[train], "local-linear")._predict_block(
            x[np.flatnonzero(folds == 0)])
        assert not solved.any()
        assert np.array_equal(crossfit_predict(x, z, "local-linear", seed=1),
                              self._fold_by_fold(x, z, seed=1))

    def test_groups_fill_the_block_budget(self):
        # 100 queries x 400 training rows is 320 KB: three folds per 1 MB slab
        assert [g.tolist() for g in _fold_groups(np.full(5, 100), "local-linear")] == [
            [0, 1, 2], [3, 4]]
        # folds of 13 and 12 queries at n = 61: one group per size
        assert [g.tolist() for g in _fold_groups(np.array([13, 12, 12, 12, 12]),
                                                 "local-linear")] == [[1, 2, 3, 4], [0]]
        # 400 x 1600 is over the slab; k-NN always fits fold by fold
        for sizes, kind in ((np.full(5, 400), "local-linear"), (np.full(5, 12), "k-nn")):
            assert [g.tolist() for g in _fold_groups(sizes, kind)] == [[m] for m in range(5)]


class TestMultiResponse:
    """(n, r) responses cross-fitted in one pass against one cross-fit per column."""

    @staticmethod
    def _sample(n, p, seed, duplicated=False):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, p))
        x[0] = 40.0  # a far tail: its query inflates the bandwidths
        y = np.sin(x[:, 0]) + x.sum(axis=1) + 0.5 * rng.normal(size=n)
        if duplicated:  # S copied as a last column: every local Gram matrix is singular
            x = np.column_stack([x, x[:, 0]])
        # a response, its median indicator and an indicator at another scale
        return x, np.column_stack([y, y < np.median(y), 1e3 * (y < 0.3)])

    SAMPLES = [(60, 1, False), (61, 2, False), (62, 10, False), (63, 2, False),
               (64, 1, False), (1003, 2, False), (1003, 10, False), (62, 2, True)]

    @pytest.mark.parametrize("kind", ["local-linear", "k-nn", "ols-linear"])
    @pytest.mark.parametrize("n, p, duplicated", SAMPLES)
    def test_multi_response_columns_match_single_fits(self, kind, n, p, duplicated):
        x, z = self._sample(n, p, seed=n + p, duplicated=duplicated)
        if duplicated and kind == "ols-linear":
            # the gate reads only the Gram matrix: one response or three, refused alike
            for r in (1, 3):
                with pytest.raises(SingularDesign):
                    crossfit_predict(x, z[:, :r], kind, seed=p)
            return
        single = [crossfit_predict(x, z[:, j : j + 1], kind, seed=p)[:, 0] for j in range(3)]
        for r in (2, 3):
            multi = crossfit_predict(x, z[:, :r], kind, seed=p)
            assert multi.shape == (n, r)
            for j in range(r):
                scale = np.abs(single[j]).max()
                assert np.abs(multi[:, j] - single[j]).max() <= 1e-14 * scale, (r, j)

    def test_multi_response_fallback_everywhere(self):
        # the duplicated sample sends every local-linear query of a fold to
        # the kernel-weighted mean, for every column
        x, z = self._sample(62, 2, seed=64, duplicated=True)
        folds = make_split_plan(62, seed=2)
        train, test = np.flatnonzero(folds != 0), np.flatnonzero(folds == 0)
        regressor = fit_conditional_mean(x[train], z[train], "local-linear")
        preds, solved = regressor._predict_block(x[test])
        assert not solved.any() and preds.shape == (test.size, 3)


class TestEmpiricalQuantile:
    def test_order_statistic_median(self):
        assert empirical_quantile(np.array([3.0, 1.0, 2.0]), 0.5) == 2.0

    def test_first_order_statistic(self):
        assert empirical_quantile(np.array([1.0, 2.0, 3.0, 4.0]), 0.25) == 1.0

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
        # a matrix gives each column's one-column rule, bit for bit
        x = np.column_stack([sample, 3.7 * sample + 1e6, np.round(sample),
                             rng.standard_t(1.5, size=500)])
        assert np.array_equal(silverman_bandwidth(x), [ref_silverman(c) for c in x.T])
        assert silverman_bandwidth(x[:, 1]) == ref_silverman(x[:, 1])

    @pytest.mark.parametrize("n", [19, 500, 2000])
    @pytest.mark.parametrize("p", [2, 10])
    def test_response_beside_the_covariates_keeps_both_bits(self, n, p):
        # the quantile's variance takes h_y and h_x from one call on [y | x]
        rng = np.random.default_rng(9100 + n + p)
        x = rng.normal(size=(n, p)) * rng.uniform(0.1, 10.0, size=p)
        y = x.sum(axis=1) ** 2 + rng.standard_t(3.0, size=n)
        bands = silverman_bandwidth(np.column_stack([y, x]))
        assert bands[0] == silverman_bandwidth(y)
        assert np.array_equal(bands[1:], silverman_bandwidth(x))

    def test_stack_gives_each_matrix_its_own_bits(self):
        rng = np.random.default_rng(6)
        for p in (1, 2, 10):
            stack = rng.normal(size=(4, 97, p)) * rng.uniform(0.1, 10.0, size=p)
            assert np.array_equal(silverman_bandwidth(stack),
                                  [silverman_bandwidth(matrix) for matrix in stack])

    def test_constant_sample(self):
        with pytest.raises(ZeroDispersion):
            silverman_bandwidth(np.full(20, 1.0))
        with pytest.raises(ZeroDispersion):  # one constant column of a matrix
            silverman_bandwidth(np.column_stack([np.arange(20.0), np.full(20, 1.0)]))


def _quartile_samples(rng, n):
    """Columns of n values: normal, with ties, integer-valued and constant."""
    return np.stack([rng.normal(size=n), np.round(rng.normal(size=n), 1),
                     rng.integers(-5, 6, size=n).astype(float), np.full(n, 2.5)])


@pytest.mark.parametrize("sizes", [range(2, 301), [1600, 20000]], ids=["2-300", "large"])
def test_quartiles_bitwise_percentile(sizes):
    rng = np.random.default_rng(0)
    for n in sizes:
        columns = _quartile_samples(rng, n)
        for sample in (columns, np.stack([columns, columns[::-1] * 3.0])):
            q75, q25 = _quartiles(sample)
            expected = np.percentile(sample, [75.0, 25.0], axis=-1)
            assert np.array_equal(q75, expected[0]) and np.array_equal(q25, expected[1]), n


class TestKde:
    def test_single_observation_at_mode(self):
        assert kde_eval(np.array([0.0]), 1.0, 0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-12)

    def test_far_tail(self):
        assert kde_eval(np.array([0.0, 0.5]), 0.3, 0.5 + 10 * 0.3) <= 1e-8

    def test_monte_carlo_standard_normal(self):
        rng = np.random.default_rng(12)
        sample = rng.normal(size=5000)
        assert kde_eval(sample, silverman_bandwidth(sample), 0.0) == pytest.approx(0.3989, abs=0.02)

    def test_normalization_by_quadrature(self):
        rng = np.random.default_rng(13)
        sample = rng.normal(size=400)
        h = silverman_bandwidth(sample)
        lo = sample.mean() - 10 * h - 4.0
        hi = sample.mean() + 10 * h + 4.0
        grid = np.linspace(lo, hi, 4001)
        values = np.array([kde_eval(sample, h, g) for g in grid])
        assert trapezoid(values, grid) == pytest.approx(1.0, abs=1e-3)


class TestCondKde:
    def test_single_pair_at_its_point(self):
        (value,) = cond_kde_profile(
            np.array([[1.0]]), np.array([2.0]), np.array([0.5]), 0.25, np.array([[1.0]]), 2.0
        )
        assert value == pytest.approx(1.0 / (0.25 * math.sqrt(2 * math.pi)), abs=1e-12)

    def test_far_tail_in_y(self):
        (value,) = cond_kde_profile(
            np.array([[1.0]]), np.array([2.0]), np.array([0.5]), 0.25, np.array([[1.0]]),
            2.0 + 12 * 0.25,
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
        marginal = kde_eval(y, h_y, median)
        (conditional,) = cond_kde_profile(x, y, h_x, h_y, np.array([[0.3]]), median)
        assert conditional == pytest.approx(marginal, abs=0.05)


# One failing call per input guard of the nuisance stack.
GUARD_CASES = {
    "dataset-x-not-matrix": (lambda: Dataset(np.zeros(2), np.zeros((2, 1, 1))), OutOfRange),
    "dataset-length-mismatch": (lambda: Dataset(np.zeros(3), np.zeros((2, 1))), OutOfRange),
    "dataset-no-rows": (lambda: Dataset(np.zeros(0), np.zeros((0, 1))), OutOfRange),
    "dataset-nonfinite": (lambda: Dataset([0.0, math.nan], [[0.0], [1.0]]), OutOfRange),
    "dataset-column-names": (lambda: Dataset([0.0], [[0.0, 1.0]], ("a",)), OutOfRange),
    # (100 / 0.1)^2 / 2 is far past the exp underflow, so every weight is zero
    "cond-kde-far-query": (
        lambda: cond_kde_profile(np.array([[0.0], [1.0]]), np.zeros(2), np.array([0.1]), 1.0,
                                 np.array([[100.0]]), 0.0),
        EmptyNeighborhood,
    ),
    # a column whose spread or squared norms would leave the double range is
    # refused at the door, before a bandwidth or a regressor sees it: under
    # the per-column scale of local-linear and the common scale of k-NN
    "bandwidth-overflowing-sd": (
        lambda: unit_scaled(Dataset([1.5e308, -1.5e308, 2.0, 0.5] + [1.0] * 46,
                                    np.arange(50.0))),
        OutOfRange,
    ),
    "local-linear-far-row": (
        lambda: unit_scaled(Dataset(np.arange(10.0), np.arange(9.0).tolist() + [1e200])),
        OutOfRange,
    ),
    "knn-far-row": (
        lambda: unit_scaled(Dataset(np.arange(10.0), np.column_stack(
            [np.arange(9.0).tolist() + [1e200], np.arange(10.0)])), common_x=True),
        OutOfRange,
    ),
    # a Dataset holds one response vector; the nuisance stack takes columns
    "door-matrix-response": (lambda: Dataset(np.zeros((10, 2)), np.arange(10.0)), OutOfRange),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, error", GUARD_CASES.values(), ids=GUARD_CASES)
def test_guard_raises_typed(call, error):
    with pytest.raises(error):
        call()
