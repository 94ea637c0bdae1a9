import numpy as np
import pytest

from fusiongain.core import ratio_estimate
from fusiongain.errors import (
    DegenerateDenominator,
    OutOfRange,
)
import fusiongain.mean_utility as mean_utility
from fusiongain.mean_utility import (
    assess_mean,
    compute_mean_intermediates,
    residual_core,
    split_data_stage,
    variance_mean,
)
from fusiongain.nuisance import Dataset, crossfit_predict, make_split_plan, split_halves
from fusiongain.simulation import DgpConfig, generate_dgp
from reference_impl import ref_mean_gamma_sq, ref_mean_point, ref_mean_split


def _linear_cfg(**kw):
    """Keyword settings of assess_mean for the method mean-linear."""
    kw.setdefault("nu", 0.5)
    kw.setdefault("regressor", "ols-linear")
    kw.setdefault("seed", 0)
    return kw


def _exact_linear_dataset(n=40, seed=0):
    """Noiseless linear relation, so any fold's least-squares fit is exact."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 1))
    y = 2.0 + 3.0 * x[:, 0]
    return Dataset(y, x)


def _point(data, cfg):
    return assess_mean(data, **cfg).theta_hat_raw


def _predicting(monkeypatch, g):
    """Make every cross-fit of this module return the predictions ``g``, as one column."""
    monkeypatch.setattr(mean_utility, "crossfit_predict", lambda *args: np.asarray(g)[:, None])


class TestBounds:
    def test_perfect_fit(self, monkeypatch):
        y = np.array([0.0, 2.0])
        _predicting(monkeypatch, [0.0, 2.0])
        assert np.mean(residual_core(np.zeros((2, 1)), y[:, None], "ols-linear", 0)[1]) == 0.0

    def test_ghat_equal_to_mean(self, monkeypatch):
        y = np.array([0.0, 2.0])
        _predicting(monkeypatch, [1.0, 1.0])
        sq = residual_core(np.zeros((2, 1)), y[:, None], "ols-linear", 0)[1]
        assert np.mean(sq) == pytest.approx(1.0, abs=1e-12)


class TestResidualCore:
    @pytest.mark.parametrize("regressor", ["ols-linear", "k-nn", "local-linear"])
    def test_unclamped_core_is_the_crossfit(self, regressor):
        data = generate_dgp(DgpConfig(b=1.0, n=120, seed=4))
        z = data.y[:, None]
        g, sq = residual_core(data.x, z, regressor, 4)
        assert np.array_equal(g, crossfit_predict(data.x, z, regressor, 4))
        assert np.array_equal(sq, (z - g) ** 2)


class TestPointEstimate:
    def test_perfect_fit_gives_nu(self):
        data = _exact_linear_dataset()
        assert _point(data, _linear_cfg()) == pytest.approx(0.5, abs=1e-10)

    def test_ghat_equal_mean_gives_one(self, monkeypatch):
        y = np.array([0.0, 2.0, 1.0, 3.0])
        _predicting(monkeypatch, np.full(4, y.mean()))
        data = Dataset(y, np.zeros((4, 1)))
        assert compute_mean_intermediates(data, "ols-linear", 0)[2] == 1.0

    def test_matches_reference_and_population_value(self):
        data = generate_dgp(DgpConfig(b=0.5, n=2000, seed=11))
        cfg = _linear_cfg(seed=11)
        theta = _point(data, cfg)
        plan = make_split_plan(2000, seed=11)
        expected, _ = ref_mean_point(data.y, data.x, 0.5, plan, "linear")
        assert theta == pytest.approx(expected, abs=1e-8)
        assert abs(theta - 0.8125) <= 0.05

    def test_at_least_nu_on_noise(self):
        rng = np.random.default_rng(3)
        for seed in range(5):
            data = Dataset(rng.normal(size=40), rng.normal(size=(40, 2)))
            for nu in (0.0, 0.3, 0.7):
                cfg = _linear_cfg(nu=nu, seed=seed)
                assert _point(data, cfg) >= nu


class TestSplitEstimate:
    def test_perfect_fit_first_half(self):
        data = _exact_linear_dataset(n=48)
        est = assess_mean(data, **_linear_cfg())
        assert est.theta_tilde_raw == pytest.approx(0.5, abs=1e-10)

    @pytest.mark.parametrize("regressor", ["ols-linear", "local-linear", "k-nn"])
    def test_reduces_the_point_stage_squares(self, monkeypatch, regressor):
        # no refit: the numerator is the point stage's sq_g over the first
        # half, the denominator its sq_mean over the rest, bit for bit
        cores = []
        finalize = mean_utility.finalize
        monkeypatch.setattr(mean_utility, "finalize",
                            lambda *args: cores.append(args[:2]) or finalize(*args))
        data = generate_dgp(DgpConfig(b=0.5, n=101, seed=6))
        assess_mean(data, **_linear_cfg(regressor=regressor, seed=6))
        scaled = split_data_stage(data, 0.5, 0.95, regressor)
        sq_g, sq_mean, a_hat = compute_mean_intermediates(scaled, regressor, 6)
        half, rest = split_halves(data.n)
        assert cores == [(a_hat, ratio_estimate(sq_g[half], sq_mean[rest]))]

    def test_matches_reference(self):
        data = generate_dgp(DgpConfig(b=1.0, n=1000, seed=3))
        cfg = _linear_cfg(seed=3)
        theta_tilde = assess_mean(data, **cfg).theta_tilde_raw
        plan = make_split_plan(1000, seed=3)
        expected = ref_mean_split(data.y, data.x, 0.5, plan, "linear")
        assert theta_tilde == pytest.approx(expected, abs=1e-8)

    def test_at_least_nu(self):
        rng = np.random.default_rng(9)
        data = Dataset(rng.normal(size=60), rng.normal(size=(60, 2)))
        assert assess_mean(data, **_linear_cfg(nu=0.25)).theta_tilde_raw >= 0.25


class TestVariance:
    def test_both_residual_squares_constant(self):
        # y symmetric around its mean with |residual| constant; ghat = -y
        y = np.array([1.0, -1.0, 1.0, -1.0])
        sq_g, sq_mean = (y - -y) ** 2, (y - np.mean(y)) ** 2
        assert variance_mean(sq_g, sq_mean, ratio_estimate(sq_g, sq_mean)) == 0.0

    @pytest.mark.filterwarnings("error")
    def test_large_response_gives_the_unscaled_answer(self):
        # squares of squared residuals of a response near 1e80 would leave the
        # double range; the door scales the response before they are formed
        base = generate_dgp(DgpConfig(b=0.5, n=40, seed=8))
        est = assess_mean(Dataset(base.y * 1e80, base.x), **_linear_cfg())
        ref = assess_mean(base, **_linear_cfg())
        assert (est.theta_hat_raw, est.theta_tilde_raw, est.gamma_hat) == pytest.approx(
            (ref.theta_hat_raw, ref.theta_tilde_raw, ref.gamma_hat), rel=1e-12)

    def test_vanishes_quadratically_as_nu_approaches_one(self):
        data = generate_dgp(DgpConfig(b=0.5, n=200, seed=4))
        values = [assess_mean(data, **_linear_cfg(nu=1.0 - eps, seed=4)).gamma_hat ** 2
                  for eps in (1e-2, 1e-3)]
        # gamma^2 = O(eps^2): dividing eps by 10 divides gamma^2 by ~100
        assert values[1] == pytest.approx(values[0] / 100.0, rel=0.05)

    def test_interval_length_near_table_value(self):
        # frozen band for the expected average interval length at b=0.5, n=2000
        data = generate_dgp(DgpConfig(b=0.5, n=2000, seed=21))
        est = assess_mean(data, **_linear_cfg(seed=21))
        assert est.ci_raw.width == pytest.approx(0.078, abs=0.02)

    def test_matches_reference(self):
        data = generate_dgp(DgpConfig(b=0.5, n=400, seed=6))
        cfg = _linear_cfg(seed=6)
        gamma_sq = assess_mean(data, **cfg).gamma_hat ** 2
        plan = make_split_plan(400, seed=6)
        expected = ref_mean_gamma_sq(data.y, data.x, 0.5, plan, "linear")
        assert gamma_sq == pytest.approx(expected, abs=1e-8)

    def test_terms_nonnegative_and_sum(self):
        data = generate_dgp(DgpConfig(b=1.0, n=300, seed=8))
        cfg = _linear_cfg(seed=8)
        sq_g, sq_mean, a_hat = compute_mean_intermediates(data, cfg["regressor"], cfg["seed"])
        ghat = crossfit_predict(data.x, data.y[:, None], cfg["regressor"], cfg["seed"])[:, 0]
        assert np.array_equal(sq_g, (data.y - ghat) ** 2)
        assert np.array_equal(sq_mean, (data.y - data.y.mean()) ** 2)
        theta2 = sq_mean.mean()
        assert a_hat == sq_g.mean() / theta2
        t1 = 2 * np.var(sq_g, ddof=1) / theta2**2
        t2 = 2 * a_hat**2 * np.var(sq_mean, ddof=1) / theta2**2
        assert t1 >= 0 and t2 >= 0
        assert t1 + t2 == pytest.approx(variance_mean(sq_g, sq_mean, a_hat), abs=1e-15)

    @pytest.mark.slow
    @pytest.mark.parametrize("b, seed0", [(0.5, 571_000), (1.0, 572_000)])
    def test_point_influence_predicts_the_spread_of_theta_hat(self, b, seed0):
        # phi_i = (sq_g_i - a_hat sq_mean_i) / theta2 from the point stage's
        # arrays: the influence SD (1 - nu) sqrt(Var(phi) / n), averaged over
        # replications, must match the Monte Carlo SD of theta_hat within three
        # standard errors of an SD from R replications, 3 / sqrt(2 (R - 1))
        reps, n, nu = 300, 1000, 0.5
        a_hats, influence_sds = [], []
        for r in range(reps):
            data = split_data_stage(generate_dgp(DgpConfig(b=b, n=n, seed=seed0 + r)), nu, 0.95,
                                    "ols-linear")
            sq_g, sq_mean, a_hat = compute_mean_intermediates(data, "ols-linear", seed0 + r)
            phi = (sq_g - a_hat * sq_mean) / np.mean(sq_mean)
            a_hats.append(a_hat)
            influence_sds.append((1.0 - nu) * np.sqrt(np.var(phi, ddof=1) / n))
        monte_carlo_sd = (1.0 - nu) * np.std(a_hats, ddof=1)
        ratio = np.mean(influence_sds) / monte_carlo_sd
        assert abs(ratio - 1.0) <= 3.0 / np.sqrt(2.0 * (reps - 1)), ratio


class TestAssess:
    def test_perfect_fit_fixture(self):
        est = assess_mean(_exact_linear_dataset(), **_linear_cfg())
        assert est.theta_hat == pytest.approx(0.5, abs=1e-10)
        assert est.method == "mean-linear"
        assert est.theta_tilde_raw is not None
        assert est.ci is not None

    def test_conditional_mode_method_tag(self):
        data = generate_dgp(DgpConfig(b=0.5, n=100, seed=2))
        est = assess_mean(data, nu=0.5, regressor="local-linear", seed=2)
        assert est.method == "mean-conditional"

    def test_b0_truncated_upper_endpoint_mostly_one(self):
        # no-signal process: the truncated upper endpoint should hit 1 in the
        # vast majority of replications (over-coverage mechanism)
        hits = 0
        reps = 200
        for seed in range(reps):
            data = generate_dgp(DgpConfig(b=0.0, n=1000, seed=seed))
            est = assess_mean(data, **_linear_cfg(seed=seed))
            hits += est.ci.hi == 1.0
        assert hits / reps >= 0.9

    def test_ci_centered_at_split_estimate(self):
        data = generate_dgp(DgpConfig(b=0.5, n=200, seed=14))
        cfg = _linear_cfg(seed=14)
        est = assess_mean(data, **cfg)
        center = 0.5 * (est.ci_raw.lo + est.ci_raw.hi)
        assert center == pytest.approx(est.theta_tilde_raw, abs=1e-12)

    def test_component_errors_carry_stage(self):
        data = Dataset(np.full(20, 1.0), np.arange(20.0)[:, None])
        with pytest.raises(DegenerateDenominator) as exc:
            assess_mean(data, **_linear_cfg())
        assert exc.value.stage == "point"
        assert str(exc.value).startswith("point:")


class TestInvariances:
    def test_affine_in_nu(self):
        data = generate_dgp(DgpConfig(b=0.5, n=200, seed=10))
        thetas = {}
        for nu in (0.0, 0.25, 0.5):
            thetas[nu] = _point(data, _linear_cfg(nu=nu, seed=10))
        # theta(nu) = (1 - nu) R + nu must be affine in nu
        assert thetas[0.25] == pytest.approx(0.75 * thetas[0.0] + 0.25, abs=1e-12)
        assert thetas[0.5] == pytest.approx(0.5 * thetas[0.0] + 0.5, abs=1e-12)

    def test_location_invariance_linear_mode(self):
        data = generate_dgp(DgpConfig(b=0.5, n=200, seed=12))
        cfg = _linear_cfg(seed=12)
        base = _point(data, cfg)
        shifted = Dataset(data.y + 17.3, data.x)
        assert _point(shifted, cfg) == pytest.approx(base, abs=1e-10)

    def test_scale_invariance_linear_mode(self):
        data = generate_dgp(DgpConfig(b=0.5, n=200, seed=13))
        cfg = _linear_cfg(seed=13)
        base = _point(data, cfg)
        scaled = Dataset(4.2 * data.y, data.x)
        assert _point(scaled, cfg) == pytest.approx(base, abs=1e-10)


_SMALL = generate_dgp(DgpConfig(b=0.5, n=40, seed=2))

# One failing call per input guard of this module, and the stage it fails in:
# the regressor menu is checked by the first fit.
GUARD_CASES = {
    "unknown-regressor": (lambda: assess_mean(_SMALL, nu=0.5, regressor="spline"), OutOfRange,
                          "point"),
}


@pytest.mark.parametrize("call, error, stage", GUARD_CASES.values(), ids=GUARD_CASES)
def test_guard_raises_typed(call, error, stage):
    with pytest.raises(error) as exc:
        call()
    assert exc.value.stage == stage
