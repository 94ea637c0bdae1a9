import numpy as np
import pytest

from fusiongain.core import ratio_estimate
from fusiongain.errors import DegenerateDenominator, DegenerateVariance
from fusiongain.mean_utility import (
    MeanAssessmentConfig,
    MeanIntermediates,
    assess_mean,
    compute_mean_intermediates,
    estimate_bounds_mean,
    point_estimate_mean,
    split_estimate_mean,
    variance_mean,
    variance_terms_mean,
)
from fusiongain.nuisance import Dataset, make_split_plan
from fusiongain.simulation import DgpConfig, generate_dgp
from reference_impl import ref_mean_gamma_sq, ref_mean_point, ref_mean_split


def _linear_cfg(**kw):
    kw.setdefault("nu", 0.5)
    kw.setdefault("g_mode", "linear")
    kw.setdefault("seed", 0)
    return MeanAssessmentConfig(**kw)


def _exact_linear_dataset(n=40, seed=0):
    """Noiseless linear relation, so any fold's least-squares fit is exact."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 1))
    y = 2.0 + 3.0 * x[:, 0]
    return Dataset(y, x)


class TestBounds:
    def test_perfect_fit(self):
        data = Dataset(np.array([0.0, 2.0]), np.array([[0.0], [1.0]]))
        theta1, theta2 = estimate_bounds_mean(data, _linear_cfg(), np.array([0.0, 2.0]))
        assert theta1 == pytest.approx(0.5, abs=1e-12)
        assert theta2 == pytest.approx(1.0, abs=1e-12)

    def test_ghat_equal_to_mean(self):
        data = Dataset(np.array([0.0, 2.0]), np.array([[0.0], [1.0]]))
        theta1, theta2 = estimate_bounds_mean(data, _linear_cfg(), np.array([1.0, 1.0]))
        assert theta1 == pytest.approx(1.0, abs=1e-12)
        assert theta2 == pytest.approx(1.0, abs=1e-12)

    def test_constant_response(self):
        data = Dataset(np.full(4, 2.0), np.arange(4.0)[:, None])
        with pytest.raises(DegenerateDenominator):
            estimate_bounds_mean(data, _linear_cfg(), np.full(4, 2.0))


class TestPointEstimate:
    def test_perfect_fit_gives_nu(self):
        data = _exact_linear_dataset()
        assert point_estimate_mean(data, _linear_cfg()) == pytest.approx(0.5, abs=1e-10)

    def test_ghat_equal_mean_gives_one(self):
        data = Dataset(np.array([0.0, 2.0, 1.0, 3.0]), np.arange(4.0)[:, None])
        bounds = estimate_bounds_mean(data, _linear_cfg(), np.full(4, data.y.mean()))
        assert ratio_estimate(*bounds) == 1.0

    def test_matches_reference_and_population_value(self):
        data = generate_dgp(DgpConfig(b=0.5, n=2000, seed=11))
        cfg = _linear_cfg(seed=11)
        theta = point_estimate_mean(data, cfg)
        plan = make_split_plan(2000, 5, seed=11)
        expected, _ = ref_mean_point(data.y, data.x, 0.5, plan.assignment, "linear")
        assert theta == pytest.approx(expected, abs=1e-8)
        assert abs(theta - 0.8125) <= 0.05

    def test_at_least_nu_on_noise(self):
        rng = np.random.default_rng(3)
        for seed in range(5):
            data = Dataset(rng.normal(size=40), rng.normal(size=(40, 2)))
            for nu in (0.0, 0.3, 0.7):
                cfg = _linear_cfg(nu=nu, seed=seed)
                assert point_estimate_mean(data, cfg) >= nu


class TestSplitEstimate:
    def test_perfect_fit_first_half(self):
        data = _exact_linear_dataset(n=48)
        assert split_estimate_mean(data, _linear_cfg()) == pytest.approx(0.5, abs=1e-10)

    def test_matches_reference(self):
        data = generate_dgp(DgpConfig(b=1.0, n=1000, seed=3))
        cfg = _linear_cfg(seed=3)
        theta_tilde = split_estimate_mean(data, cfg)
        half_plan = make_split_plan(500, 5, seed=3)
        expected = ref_mean_split(data.y, data.x, 0.5, half_plan.assignment, "linear")
        assert theta_tilde == pytest.approx(expected, abs=1e-8)

    def test_at_least_nu(self):
        rng = np.random.default_rng(9)
        data = Dataset(rng.normal(size=60), rng.normal(size=(60, 2)))
        assert split_estimate_mean(data, _linear_cfg(nu=0.25)) >= 0.25


class TestVariance:
    def test_both_residual_squares_constant(self):
        # y symmetric around its mean with |residual| constant; ghat = -y
        y = np.array([1.0, -1.0, 1.0, -1.0])
        data = Dataset(y, np.arange(4.0)[:, None])
        im = MeanIntermediates(
            mu_hat=0.0, ghat=-y, theta1_hat=2.5, theta2_hat=1.0
        )
        with pytest.raises(DegenerateVariance):
            variance_mean(data, _linear_cfg(), im)

    def test_vanishes_quadratically_as_nu_approaches_one(self):
        data = generate_dgp(DgpConfig(b=0.5, n=200, seed=4))
        values = []
        for eps in (1e-2, 1e-3):
            cfg = _linear_cfg(nu=1.0 - eps, seed=4)
            im = compute_mean_intermediates(data, cfg)
            values.append(variance_mean(data, cfg, im))
        # gamma^2 = O(eps^2): dividing eps by 10 divides gamma^2 by ~100
        assert values[1] == pytest.approx(values[0] / 100.0, rel=0.05)

    def test_interval_length_near_table_value(self):
        # frozen band for the expected average interval length at b=0.5, n=2000
        data = generate_dgp(DgpConfig(b=0.5, n=2000, seed=21))
        est = assess_mean(data, _linear_cfg(seed=21))
        assert est.ci_raw.width == pytest.approx(0.078, abs=0.02)

    def test_matches_reference(self):
        data = generate_dgp(DgpConfig(b=0.5, n=400, seed=6))
        cfg = _linear_cfg(seed=6)
        im = compute_mean_intermediates(data, cfg)
        gamma_sq = variance_mean(data, cfg, im)
        plan = make_split_plan(400, 5, seed=6)
        expected = ref_mean_gamma_sq(data.y, data.x, 0.5, plan.assignment, "linear")
        assert gamma_sq == pytest.approx(expected, abs=1e-8)

    def test_terms_nonnegative_and_sum(self):
        data = generate_dgp(DgpConfig(b=1.0, n=300, seed=8))
        cfg = _linear_cfg(seed=8)
        im = compute_mean_intermediates(data, cfg)
        t1, t2 = variance_terms_mean(data, cfg, im)
        assert t1 >= 0 and t2 >= 0
        assert t1 + t2 == pytest.approx(variance_mean(data, cfg, im), abs=1e-15)


class TestAssess:
    def test_perfect_fit_fixture(self):
        est = assess_mean(_exact_linear_dataset(), _linear_cfg())
        assert est.theta_hat == pytest.approx(0.5, abs=1e-10)
        assert est.method == "mean-linear"
        assert est.theta_tilde_raw is not None
        assert est.ci is not None

    def test_conditional_mode_method_tag(self):
        data = generate_dgp(DgpConfig(b=0.5, n=100, seed=2))
        cfg = MeanAssessmentConfig(nu=0.5, g_mode="conditional-mean", seed=2)
        est = assess_mean(data, cfg)
        assert est.method == "mean-conditional"

    def test_b0_truncated_upper_endpoint_mostly_one(self):
        # no-signal process: the truncated upper endpoint should hit 1 in the
        # vast majority of replications (over-coverage mechanism)
        hits = 0
        reps = 200
        for seed in range(reps):
            data = generate_dgp(DgpConfig(b=0.0, n=1000, seed=seed))
            est = assess_mean(data, _linear_cfg(seed=seed))
            hits += est.ci.hi == 1.0
        assert hits / reps >= 0.9

    def test_ci_centered_at_split_estimate(self):
        data = generate_dgp(DgpConfig(b=0.5, n=200, seed=14))
        cfg = _linear_cfg(seed=14)
        est = assess_mean(data, cfg)
        center = 0.5 * (est.ci_raw.lo + est.ci_raw.hi)
        assert center == pytest.approx(est.theta_tilde_raw, abs=1e-12)

    def test_component_errors_carry_stage(self):
        data = Dataset(np.full(20, 1.0), np.arange(20.0)[:, None])
        with pytest.raises(DegenerateDenominator) as exc:
            assess_mean(data, _linear_cfg())
        assert exc.value.stage == "point"
        assert str(exc.value).startswith("point:")


class TestInvariances:
    def test_affine_in_nu(self):
        data = generate_dgp(DgpConfig(b=0.5, n=200, seed=10))
        thetas = {}
        for nu in (0.0, 0.25, 0.5):
            thetas[nu] = point_estimate_mean(data, _linear_cfg(nu=nu, seed=10))
        # theta(nu) = (1 - nu) R + nu must be affine in nu
        assert thetas[0.25] == pytest.approx(0.75 * thetas[0.0] + 0.25, abs=1e-12)
        assert thetas[0.5] == pytest.approx(0.5 * thetas[0.0] + 0.5, abs=1e-12)

    def test_location_invariance_linear_mode(self):
        data = generate_dgp(DgpConfig(b=0.5, n=200, seed=12))
        cfg = _linear_cfg(seed=12)
        base = point_estimate_mean(data, cfg)
        shifted = Dataset(data.y + 17.3, data.x)
        assert point_estimate_mean(shifted, cfg) == pytest.approx(base, abs=1e-10)

    def test_scale_invariance_linear_mode(self):
        data = generate_dgp(DgpConfig(b=0.5, n=200, seed=13))
        cfg = _linear_cfg(seed=13)
        base = point_estimate_mean(data, cfg)
        scaled = Dataset(4.2 * data.y, data.x)
        assert point_estimate_mean(scaled, cfg) == pytest.approx(base, abs=1e-10)
