import numpy as np
import pytest

from fusiongain.errors import (
    DegenerateResidualVariance,
    DegenerateVariance,
    OutOfRange,
    SingularDesign,
    TooFewObservations,
)
from fusiongain.linreg_utility import (
    assess_linreg,
    fit_components,
    influence_composite,
    variance_linreg,
)
from fusiongain.nuisance import Dataset
from fusiongain.simulation import DgpConfig, generate_dgp
from reference_impl import ref_linreg_components, ref_linreg_gamma_sq


def _exact_fit_dataset():
    x = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    return Dataset(x[:, 0].copy(), x)


def _sigma0_alpha_positive_dataset():
    # Y depends only on the second covariate; exact fit, but S-residuals vary
    x = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]])
    return Dataset(x[:, 1].copy(), x)


def _point(data, nu):
    return assess_linreg(data, nu=nu).theta_hat_raw


class TestComponents:
    def test_exact_linear_relation(self):
        comp = fit_components(_exact_fit_dataset(), s_index=0)
        assert comp.mu_hat == pytest.approx([1.0, 0.0], abs=1e-12)
        assert comp.eta_hat == pytest.approx(1.0, abs=1e-12)
        assert comp.sigma_inv == pytest.approx(np.diag([2.0, 2.0]), abs=1e-12)
        assert comp.kappa_hat == pytest.approx(4.0, abs=1e-12)
        assert comp.sigma_hat == pytest.approx(0.0, abs=1e-12)
        assert comp.alpha_hat == pytest.approx(0.0, abs=1e-12)

    def test_response_scaling(self):
        data = generate_dgp(DgpConfig(b=0.5, n=300, seed=1))
        base = fit_components(data, 0)
        scaled = fit_components(Dataset(3.0 * data.y, data.x), 0)
        assert scaled.mu_hat == pytest.approx(3.0 * base.mu_hat, rel=1e-12)
        assert scaled.eta_hat == pytest.approx(3.0 * base.eta_hat, rel=1e-12)
        assert scaled.sigma_hat == pytest.approx(3.0 * base.sigma_hat, rel=1e-12)
        assert scaled.alpha_hat == pytest.approx(9.0 * base.alpha_hat, rel=1e-12)
        assert scaled.kappa_hat == base.kappa_hat

    def test_matches_reference(self):
        data = generate_dgp(DgpConfig(b=1.0, n=2000, seed=13))
        comp = fit_components(data, 0)
        ref = ref_linreg_components(data.y, data.x, 0)
        assert comp.mu_hat == pytest.approx(ref["mu"], abs=1e-8)
        assert comp.eta_hat == pytest.approx(ref["eta"], abs=1e-8)
        assert comp.kappa_hat == pytest.approx(ref["kappa"], abs=1e-8)
        assert comp.sigma_hat == pytest.approx(ref["sigma"], abs=1e-8)
        assert comp.alpha_hat == pytest.approx(ref["alpha"], abs=1e-8)

    def test_singular_design(self):
        x = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0], [-1.0, -2.0]])
        with pytest.raises(SingularDesign):
            fit_components(Dataset(np.ones(4), x), 0)


class TestPointEstimate:
    def test_zero_noise_gives_one(self):
        data = _sigma0_alpha_positive_dataset()
        comp = fit_components(data, s_index=0)
        assert comp.sigma_hat == pytest.approx(0.0, abs=1e-12)
        assert comp.alpha_hat > 0
        assert _point(data, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_exact_fit_raises(self):
        with pytest.raises(DegenerateResidualVariance) as exc:
            assess_linreg(_exact_fit_dataset(), nu=0.5)
        assert exc.value.stage == "point"

    def test_near_population_value_b0(self):
        data = generate_dgp(DgpConfig(b=0.0, n=2000, seed=31))
        theta = _point(data, 0.5)
        assert abs(theta - 0.76) <= 0.04

    def test_identity_against_recomputed_components(self):
        data = generate_dgp(DgpConfig(b=0.5, n=500, seed=32))
        theta = _point(data, 0.3)
        ref = ref_linreg_components(data.y, data.x, 0)
        expected = 1.0 - 0.7 * ref["sigma"] ** 2 / (ref["alpha"] * ref["kappa"])
        assert theta == pytest.approx(expected, abs=1e-12)

    def test_bound_pair_consistency(self):
        data = generate_dgp(DgpConfig(b=1.0, n=400, seed=33))
        comp = fit_components(data, 0)
        # the utility is the ratio of the with-fusion over the internal-only bound trace
        theta2 = comp.sigma_hat**2 * comp.kappa_hat
        theta1 = theta2 - 0.5 * comp.sigma_hat**4 / comp.alpha_hat
        assert theta1 / theta2 == pytest.approx(_point(data, 0.5), abs=1e-12)


class TestVariance:
    def test_matches_reference(self):
        data = generate_dgp(DgpConfig(b=1.0, n=2000, seed=13))
        gamma_sq = assess_linreg(data, nu=0.5).gamma_hat ** 2
        expected = ref_linreg_gamma_sq(data.y, data.x, 0, 0.5)
        assert gamma_sq == pytest.approx(expected, abs=1e-8)

    def test_vanishes_quadratically_as_nu_approaches_one(self):
        data = generate_dgp(DgpConfig(b=0.5, n=300, seed=34))
        v1 = assess_linreg(data, nu=1.0 - 1e-2).gamma_hat ** 2
        v2 = assess_linreg(data, nu=1.0 - 1e-3).gamma_hat ** 2
        assert v2 == pytest.approx(v1 / 100.0, rel=1e-9)

    def test_constant_composite_raises(self):
        data = _sigma0_alpha_positive_dataset()
        comp = fit_components(data, s_index=0)
        with pytest.raises(DegenerateVariance):
            variance_linreg(data, comp)

    @pytest.mark.filterwarnings("error")
    def test_large_response_gives_the_unscaled_answer(self):
        # the door scales the response before any square of it is formed
        base = generate_dgp(DgpConfig(b=0.5, n=40, seed=8))
        est = assess_linreg(Dataset(base.y * 1e80, base.x), nu=0.5)
        ref = assess_linreg(base, nu=0.5)
        assert (est.theta_hat_raw, est.gamma_hat) == pytest.approx(
            (ref.theta_hat_raw, ref.gamma_hat), rel=1e-12)

    def test_agrees_with_influence_function_form(self):
        # diagnostic: the ratio's plug-in influence function is an affine map
        # of the composite, -(1-nu)/(alpha kappa) * (v_i - sigma^2), so its
        # sample variance must reproduce gamma^2 exactly
        data = generate_dgp(DgpConfig(b=1.0, n=500, seed=40))
        comp = fit_components(data, 0)
        nu = 0.5
        composite = influence_composite(data, comp)
        influence = -(1 - nu) / (comp.alpha_hat * comp.kappa_hat) * (
            composite - comp.sigma_hat**2
        )
        gamma_sq = assess_linreg(data, nu=nu).gamma_hat ** 2
        assert float(np.var(influence, ddof=1)) == pytest.approx(gamma_sq, rel=1e-12)

    def test_composite_recomputation_second_pass(self):
        data = generate_dgp(DgpConfig(b=0.5, n=400, seed=35))
        comp = fit_components(data, 0)
        composite = influence_composite(data, comp)
        # second pass: plain per-observation loop with trace computed literally
        sigma_inv = np.linalg.inv(data.x.T @ data.x / 400)
        s = data.x[:, 0]
        e3 = np.mean(s**3 * (data.y - comp.eta_hat * s))
        es2 = np.mean(s**2)
        for i in range(0, 400, 37):
            xi = data.x[i]
            resid = data.y[i] - comp.mu_hat @ xi
            tr = np.trace(sigma_inv @ np.outer(xi, xi) @ sigma_inv)
            s_term = s[i] ** 2 * (data.y[i] - comp.eta_hat * s[i]) ** 2 - 2 * e3 * s[
                i
            ] * (data.y[i] - comp.eta_hat * s[i]) / es2
            expected = (
                resid**2
                + (comp.sigma_hat**2 / comp.kappa_hat) * tr
                - (comp.sigma_hat**2 / comp.alpha_hat) * s_term
            )
            assert composite[i] == pytest.approx(expected, abs=1e-12)


class TestAssess:
    def test_zero_noise_fixture(self):
        est = assess_linreg(_sigma0_alpha_positive_dataset(), nu=0.5)
        assert est.theta_hat == 1.0
        assert est.gamma_hat == 0.0
        assert est.ci == est.ci_raw
        assert est.ci.lo == est.ci.hi == 1.0
        assert est.theta_tilde_raw is None
        assert est.method == "linreg"

    def test_ci_centered_at_point_estimate(self):
        data = generate_dgp(DgpConfig(b=0.5, n=300, seed=36))
        est = assess_linreg(data, nu=0.5)
        center = 0.5 * (est.ci_raw.lo + est.ci_raw.hi)
        assert center == pytest.approx(est.theta_hat_raw, abs=1e-12)


class TestInvariances:
    def test_affine_in_nu(self):
        data = generate_dgp(DgpConfig(b=0.5, n=300, seed=37))
        thetas = {nu: _point(data, nu) for nu in (0.0, 0.25, 0.5)}
        assert thetas[0.25] == pytest.approx(0.75 * thetas[0.0] + 0.25, abs=1e-12)
        assert thetas[0.5] == pytest.approx(0.5 * thetas[0.0] + 0.5, abs=1e-12)

    def test_scale_invariance(self):
        data = generate_dgp(DgpConfig(b=1.0, n=300, seed=38))
        base = _point(data, 0.5)
        scaled = _point(Dataset(2.5 * data.y, data.x), 0.5)
        assert scaled == pytest.approx(base, abs=1e-10)

    def test_permuting_non_s_columns(self):
        rng = np.random.default_rng(39)
        x = rng.normal(size=(400, 3))
        y = x @ np.array([1.0, -0.5, 0.25]) + rng.normal(size=400)
        base = _point(Dataset(y, x), 0.5)
        swapped = _point(Dataset(y, x[:, [0, 2, 1]]), 0.5)
        assert swapped == pytest.approx(base, abs=1e-10)


@pytest.mark.slow
class TestTableBands:
    def test_mae_b_half_n1000(self):
        from fusiongain.simulation import MonteCarloCell, run_monte_carlo

        cell = MonteCarloCell(method="linreg", dgp=DgpConfig(b=0.5, n=1000))
        [result] = run_monte_carlo([(cell, 77)], reps=300)
        assert 0.5 * 0.0112 <= result.mae <= 1.5 * 0.0112

    def test_coverage_b1_n2000(self):
        from fusiongain.simulation import MonteCarloCell, run_monte_carlo

        cell = MonteCarloCell(method="linreg", dgp=DgpConfig(b=1.0, n=2000))
        [result] = run_monte_carlo([(cell, 78)], reps=300)
        assert result.cr == pytest.approx(0.947, abs=0.025)


# One row: the S moment keeps a rounding residue, so only the row count fails.
_ONE_ROW = Dataset([1.0], [[0.1]])


def _scaled_s(scale):
    data = generate_dgp(DgpConfig(b=0.5, n=20, seed=2))
    return Dataset(data.y, data.x * [scale, 1.0])


# One failing call per input guard of this module.
GUARD_CASES = {
    "s-index": (lambda: fit_components(_ONE_ROW, s_index=1), OutOfRange),
    "one-row-variance": (lambda: variance_linreg(_ONE_ROW, fit_components(_ONE_ROW)),
                         TooFewObservations),
    # a (numerically) zero S column leaves a zero on the diagonal of X'X / n
    "s-column-zero": (lambda: fit_components(_scaled_s(0.0)), SingularDesign),
    "s-column-1e-162": (lambda: fit_components(_scaled_s(1e-162)), SingularDesign),
    "s-column-1e-170": (lambda: fit_components(_scaled_s(1e-170)), SingularDesign),
}


@pytest.mark.parametrize("call, error", GUARD_CASES.values(), ids=GUARD_CASES)
def test_guard_raises_typed(call, error):
    with pytest.raises(error):
        call()
