import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fusiongain import quantile_utility
from fusiongain.core import ratio_estimate
from fusiongain.errors import OutOfRange
from fusiongain.mean_utility import residual_core, split_data_stage
from fusiongain.nuisance import (
    Dataset,
    cond_kde_profile,
    crossfit_predict,
    empirical_quantile,
    kde_eval,
    make_split_plan,
    silverman_bandwidth,
    split_halves,
)
from fusiongain.quantile_utility import (
    assess_quantile,
    compute_quantile_intermediates,
    split_estimate_quantile,
    variance_quantile,
)
from fusiongain.simulation import DgpConfig, generate_dgp
from reference_impl import (
    ref_quantile_gamma_sq,
    ref_quantile_point,
    ref_quantile_split,
)


def _cfg(**kw):
    """Keyword settings of assess_quantile."""
    kw.setdefault("nu", 0.5)
    kw.setdefault("tau", 0.5)
    kw.setdefault("seed", 0)
    kw.setdefault("regressor", "local-linear")
    return kw


def _fit_args(cfg):
    """(tau, regressor, seed): what the cross-fitting helpers read of ``cfg``."""
    return cfg["tau"], cfg["regressor"], cfg["seed"]


def _separable_dataset(n=20):
    """Covariate equal to the indicator itself: a 1-NN classifier is perfect."""
    y = np.arange(1.0, n + 1.0)
    mu_hat = empirical_quantile(y, 0.5)
    x = (y < mu_hat).astype(float)[:, None]
    return Dataset(y, x)


def _point(data, cfg):
    return assess_quantile(data, **cfg).theta_hat_raw


def _variance_terms(data, cfg, mu_hat, fhat):
    """The density and dispersion summands of g^2, recomputed term by term."""
    h_y = silverman_bandwidth(data.y)
    f_y = kde_eval(data.y, h_y, mu_hat)
    h_x = np.array([silverman_bandwidth(data.x[:, d]) for d in range(data.p)])
    f_cond = cond_kde_profile(data.x, data.y, h_x, h_y, data.x, mu_hat)
    slope = 2.0 * float(np.mean(fhat * f_cond)) / f_y - 1.0
    gaps_sq = ((data.y < mu_hat).astype(float) - fhat) ** 2
    theta2 = cfg["tau"] * (1.0 - cfg["tau"])
    return 2.0 * slope**2 / theta2, 2.0 * float(np.var(gaps_sq, ddof=1)) / theta2**2


class TestPointEstimate:
    def test_perfect_classifier_gives_nu(self):
        data = _separable_dataset()
        cfg = _cfg(regressor="k-nn")
        assert _point(data, cfg) == pytest.approx(0.5, abs=1e-12)

    def test_no_information_case_gives_one(self):
        # formula level: constant prediction tau and indicator mean exactly tau
        tau, nu = 0.5, 0.5
        indicators = np.array([0.0, 1.0] * 10)
        fhat = np.full(20, tau)
        numerator = np.mean((indicators - fhat) ** 2)
        theta = (1 - nu) * numerator / (tau * (1 - tau)) + nu
        assert theta == pytest.approx(1.0, abs=1e-12)

    def test_matches_reference(self):
        data = generate_dgp(DgpConfig(b=1.0, n=2000, seed=5))
        cfg = _cfg(tau=0.5, seed=5)
        theta = _point(data, cfg)
        plan = make_split_plan(2000, seed=5)
        expected, _, _ = ref_quantile_point(data.y, data.x, 0.5, 0.5, plan)
        assert theta == pytest.approx(expected, abs=1e-8)

    def test_at_least_nu_and_below_ceiling(self):
        rng = np.random.default_rng(7)
        for seed in range(4):
            data = Dataset(rng.normal(size=60), rng.normal(size=(60, 2)))
            for tau in (0.25, 0.5, 0.8):
                cfg = _cfg(nu=0.3, tau=tau, seed=seed)
                theta = _point(data, cfg)
                assert theta >= 0.3
                assert theta <= 0.7 / (tau * (1 - tau)) + 0.3 + 1e-12


class TestSplitEstimate:
    def test_perfect_classifier_on_first_half(self):
        # the covariate is 1(y < mu_tilde): on the first-half rows every
        # neighbour of the full-sample cross-fit shares the row's indicator
        n = 24
        y = np.arange(1.0, n + 1.0)
        n_half = n // 2
        mu_tilde = empirical_quantile(y[n_half:], 0.5)
        x = (y < mu_tilde).astype(float)[:, None]
        data = Dataset(y, x)
        cfg = _cfg(regressor="k-nn")
        sq_tilde = compute_quantile_intermediates(data, *_fit_args(cfg))[2][:, 1]
        assert split_estimate_quantile(sq_tilde, cfg["tau"]) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("regressor", ["ols-linear", "local-linear", "k-nn"])
    def test_reads_the_point_stage_pass(self, monkeypatch, regressor):
        # one cross-fit: the split numerator is the first-half mean of the
        # squared gaps of 1(Y < mu_tilde), fitted as the second column of
        # the point stage's pass, bit for bit
        calls = []
        monkeypatch.setattr(quantile_utility, "residual_core",
                            lambda x, z, *args: calls.append(z.shape) or residual_core(x, z, *args))
        data = generate_dgp(DgpConfig(b=0.5, n=101, seed=6))
        est = assess_quantile(data, **_cfg(tau=0.25, seed=6, regressor=regressor))
        assert calls == [(101, 2)]
        scaled = split_data_stage(data, 0.5, 0.95, regressor)
        half, rest = split_halves(data.n)
        mu_tilde = empirical_quantile(scaled.y[rest], 0.25)
        mu_hat = empirical_quantile(scaled.y, 0.25)
        z = (scaled.y[:, None] < np.array([mu_hat, mu_tilde])).astype(float)
        g = np.clip(crossfit_predict(scaled.x, z, regressor, 6), 0.0, 1.0)
        sq = (z - g) ** 2
        assert est.a_hat == ratio_estimate(sq[:, 0], 0.25 * 0.75)
        assert est.a_tilde == ratio_estimate(sq[half, 1], 0.25 * 0.75)

    def test_matches_reference(self):
        data = generate_dgp(DgpConfig(b=0.5, n=1000, seed=9))
        cfg = _cfg(tau=0.25, seed=9)
        theta_tilde = assess_quantile(data, **cfg).theta_tilde_raw
        plan = make_split_plan(1000, seed=9)
        expected = ref_quantile_split(data.y, data.x, 0.5, 0.25, plan)
        assert theta_tilde == pytest.approx(expected, abs=1e-8)

    def test_at_least_nu(self):
        rng = np.random.default_rng(15)
        data = Dataset(rng.normal(size=80), rng.normal(size=(80, 1)))
        assert assess_quantile(data, **_cfg(nu=0.4)).theta_tilde_raw >= 0.4


class TestVariance:
    def test_matches_reference(self):
        data = generate_dgp(DgpConfig(b=0.5, n=400, seed=17))
        cfg = _cfg(tau=0.25, seed=17)
        gamma_sq = assess_quantile(data, **cfg).gamma_hat ** 2
        plan = make_split_plan(400, seed=17)
        expected = ref_quantile_gamma_sq(data.y, data.x, 0.5, 0.25, plan)
        assert gamma_sq == pytest.approx(expected, abs=1e-8)

    def test_vanishes_quadratically_as_nu_approaches_one(self):
        data = generate_dgp(DgpConfig(b=0.5, n=200, seed=18))
        values = [assess_quantile(data, **_cfg(nu=1.0 - eps, seed=18)).gamma_hat ** 2
                  for eps in (1e-2, 1e-3)]
        assert values[1] == pytest.approx(values[0] / 100.0, rel=1e-6)

    def test_second_summand_zero_for_constant_squared_residuals(self):
        data = generate_dgp(DgpConfig(b=0.5, n=100, seed=19))
        cfg = _cfg(seed=19)
        mu_hat = empirical_quantile(data.y, cfg["tau"])
        indicators = (data.y < mu_hat).astype(float)
        # wrong predictions but with an exactly constant squared gap of 0.25^2
        fhat = np.where(indicators == 1.0, 0.75, 0.25)
        term1, term2 = _variance_terms(data, cfg, mu_hat, fhat)
        assert term2 == 0.0
        assert variance_quantile(data, cfg["tau"], mu_hat, fhat, (indicators - fhat) ** 2) == term1

    def test_terms_nonnegative_and_sum(self):
        data = generate_dgp(DgpConfig(b=1.0, n=300, seed=20))
        cfg = _cfg(tau=0.25, seed=20)
        mu_hat, fhat, sq, _ = compute_quantile_intermediates(data, *_fit_args(cfg))
        # the point stage's first column is the squared gap of 1(Y < mu_hat)
        assert np.array_equal(sq[:, 0], ((data.y < mu_hat) - fhat) ** 2)
        t1, t2 = _variance_terms(data, cfg, mu_hat, fhat)
        assert t1 >= 0 and t2 >= 0
        assert t1 + t2 == pytest.approx(
            variance_quantile(data, cfg["tau"], mu_hat, fhat, sq[:, 0]), abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-10**6, 10**6), min_size=2, max_size=500),
           st.sampled_from([1e-9, 1.0, 1e12]),
           st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_density_at_the_empirical_quantile_clears_the_floor(self, ints, scale, tau):
        # mu_hat is a sample point, so its own kernel term gives
        # f_Y(mu_hat) h_y >= 1 / (n sqrt(2 pi)) > 0: variance_quantile's
        # division by f_Y(mu_hat) cannot be by zero on the assess path
        assume(len(set(ints)) > 1)
        y = np.array(ints, dtype=float) * scale
        h_y = silverman_bandwidth(y)
        f_y = kde_eval(y, h_y, empirical_quantile(y, tau))
        bound = 1.0 / (y.size * math.sqrt(2.0 * math.pi))
        assert f_y * h_y >= bound * (1.0 - 1e-12)  # up to rounding
        assert f_y > 0.0


class TestAssess:
    def test_perfect_classifier_truncates_to_nu(self):
        data = _separable_dataset()
        cfg = _cfg(regressor="k-nn")
        est = assess_quantile(data, **cfg)
        assert est.theta_hat == pytest.approx(0.5, abs=1e-12)
        assert est.method == "quantile"

    def test_ci_centered_at_split_estimate(self):
        data = generate_dgp(DgpConfig(b=0.5, n=200, seed=23))
        est = assess_quantile(data, **_cfg(seed=23))
        center = 0.5 * (est.ci_raw.lo + est.ci_raw.hi)
        assert center == pytest.approx(est.theta_tilde_raw, abs=1e-12)

    def test_b0_coverage_smoke(self):
        # no-signal process, truth is 1: truncation should give high coverage
        covered = 0
        reps = 60
        for seed in range(reps):
            data = generate_dgp(DgpConfig(b=0.0, n=500, seed=seed))
            est = assess_quantile(data, **_cfg(seed=seed))
            covered += est.ci.contains(1.0)
        assert covered / reps >= 0.9


class TestInvariances:
    def test_empirical_quantile_condition_holds_in_pipeline(self):
        rng = np.random.default_rng(25)
        for _ in range(50):
            n = int(rng.integers(20, 200))
            tau = float(rng.uniform(0.05, 0.95))
            y = rng.normal(size=n)
            q = empirical_quantile(y, tau)
            assert abs(np.mean(y < q) - tau) <= 1.0 / n

    def test_monotone_transform_invariance_knn(self):
        data = generate_dgp(DgpConfig(b=1.0, n=200, seed=26))
        cfg = _cfg(tau=0.25, regressor="k-nn", seed=26)
        base = _point(data, cfg)
        transformed = Dataset(np.exp(data.y / 2.0), data.x)
        assert _point(transformed, cfg) == pytest.approx(base, abs=1e-12)

    def test_affine_in_nu(self):
        data = generate_dgp(DgpConfig(b=0.5, n=200, seed=27))
        thetas = {}
        for nu in (0.0, 0.25, 0.5):
            thetas[nu] = _point(data, _cfg(nu=nu, seed=27))
        assert thetas[0.25] == pytest.approx(0.75 * thetas[0.0] + 0.25, abs=1e-12)
        assert thetas[0.5] == pytest.approx(0.5 * thetas[0.0] + 0.5, abs=1e-12)


@pytest.mark.slow
class TestTableBands:
    def test_interval_length_tau_half(self):
        # frozen band for the expected average interval length at tau=0.5, b=0.5, n=1000
        from fusiongain.simulation import MonteCarloCell, run_monte_carlo

        cell = MonteCarloCell(
            method="quantile", dgp=DgpConfig(b=0.5, n=1000), tau=0.5
        )
        [result] = run_monte_carlo([(cell, 1234)], reps=100, workers=2)
        assert result.al == pytest.approx(0.0658, abs=0.02)

    def test_mae_tau_quarter_b1(self):
        from fusiongain.simulation import MonteCarloCell, run_monte_carlo

        cell = MonteCarloCell(
            method="quantile", dgp=DgpConfig(b=1.0, n=2000), tau=0.25
        )
        [result] = run_monte_carlo([(cell, 99)], reps=60, workers=2)
        assert 0.5 * 0.0117 <= result.mae <= 1.5 * 0.0117


_SMALL = generate_dgp(DgpConfig(b=0.5, n=40, seed=2))


# One failing call per input guard of this module, and the stage it fails in:
# tau and the regressor menu are checked by the point stage's first reads.
GUARD_CASES = {
    "unknown-regressor": (lambda: assess_quantile(_SMALL, nu=0.5, regressor="spline"),
                          OutOfRange, "point"),
    "tau-one": (lambda: assess_quantile(_SMALL, nu=0.5, tau=1.0), OutOfRange, "point"),
}


@pytest.mark.parametrize("call, error, stage", GUARD_CASES.values(), ids=GUARD_CASES)
def test_guard_raises_typed(call, error, stage):
    with pytest.raises(error) as exc:
        call()
    assert exc.value.stage == stage
