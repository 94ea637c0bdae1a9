import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri

from fusiongain import rng
from fusiongain.core import (
    Interval,
    UtilityEstimate,
    normal_quantile,
    ratio_estimate,
    relative_utility,
    truncate_interval,
    truncate_point,
    wald_interval,
)
from fusiongain.errors import (
    DegenerateDenominator,
    OutOfRange,
    TooFewObservations,
    stage,
)
from fusiongain.nuisance import Dataset
from fusiongain.simulation import METHODS, DgpConfig, generate_dgp

finite_floats = st.floats(min_value=-50, max_value=50, allow_nan=False)


class TestTruncation:
    def test_interval_above_one_collapses(self):
        assert truncate_interval(Interval(1.1, 1.2)) == Interval(1.0, 1.0)

    def test_interior_fixed_point(self):
        assert truncate_interval(Interval(0.5, 0.9)) == Interval(0.5, 0.9)

    def test_negative_lower_endpoint(self):
        assert truncate_interval(Interval(-0.2, 0.3)) == Interval(0.0, 0.3)

    def test_point_branches(self):
        assert truncate_point(1.3) == 1.0
        assert truncate_point(0.8125) == 0.8125
        assert truncate_point(-0.1) == 0.0

    def test_point_matches_interval(self):
        for x in (-3.0, 0.0, 0.25, 1.0, 7.0):
            assert truncate_point(x) == truncate_interval(Interval(x, x)).lo

    @given(finite_floats, finite_floats)
    def test_idempotent_ordered_and_in_unit_range(self, a, b):
        lo, hi = min(a, b), max(a, b)
        once = truncate_interval(Interval(lo, hi))
        assert truncate_interval(once) == once
        assert 0.0 <= once.lo <= once.hi <= 1.0


class TestRatio:
    def test_simple_ratio(self):
        assert ratio_estimate(0.5, 1.0) == 0.5

    def test_no_benefit_case(self):
        assert ratio_estimate(1.0, 1.0) == 1.0

    def test_zero_denominator(self):
        with pytest.raises(DegenerateDenominator):
            ratio_estimate(0.3, 0.0)

    def test_per_row_terms_give_the_ratio_of_their_means(self):
        gen = np.random.default_rng(5)
        for n in (1, 7, 1000):
            terms1, terms2 = gen.exponential(size=n), gen.exponential(size=n)
            expected = float(np.mean(terms1)) / float(np.mean(terms2))
            assert ratio_estimate(terms1, terms2) == expected  # bit for bit
            assert ratio_estimate(terms1, float(np.mean(terms2))) == expected

    def test_zero_mean_terms_are_a_degenerate_denominator(self):
        with pytest.raises(DegenerateDenominator):
            ratio_estimate(np.ones(3), np.zeros(3))


class TestNormalDist:
    def test_median(self):
        assert normal_quantile(0.5) == 0.0

    def test_upper_975(self):
        assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)

    def test_antisymmetry(self):
        assert normal_quantile(0.025) == pytest.approx(-normal_quantile(0.975), abs=1e-12)
        # exact where 1 - u is exact: a central grid and both tails
        levels = [k / 4096.0 for k in range(1, 4096)] + [math.ldexp(1.0, -k) for k in range(1, 54)]
        for u in levels:
            assert normal_quantile(1.0 - u) == -normal_quantile(u)

    def test_bit_identical_to_scipy_ndtri(self):
        levels = np.concatenate([
            rng.uniforms_open(rng.substream(21, 0), 60_000),  # the package's dyadic grid
            np.logspace(-300.0, -0.5, 20_000),
            1.0 - np.logspace(-16.0, -0.5, 20_000),
            (1.0 + np.linspace(1e-6, 1.0 - 1e-6, 5_001)) / 2.0,  # (1 + alpha)/2
        ])
        ours = np.array([normal_quantile(u) for u in levels.tolist()])
        mismatched = levels[ours.view(np.int64) != ndtri(levels).view(np.int64)]
        assert mismatched.size == 0, mismatched[:5].tolist()

    def test_out_of_range(self):
        for bad in (0.0, 1.0, -0.2, -0.1, 1.5, math.nan):
            with pytest.raises(OutOfRange):
                normal_quantile(bad)

    def test_quantile_inverts_cdf_to_1e10(self):
        # independent Phi via the C library's erfc
        levels = np.concatenate(
            [[1e-8, 1 - 1e-8], np.linspace(1e-6, 1 - 1e-6, 201)]
        )
        for alpha in levels:
            u = normal_quantile(alpha)
            phi_u = 0.5 * math.erfc(-u / math.sqrt(2.0))
            assert abs(phi_u - alpha) <= 1e-10

    def test_roundtrip_on_minus6_6(self):
        for x in np.linspace(-6.0, 6.0, 121):
            assert normal_quantile(float(ndtr(x))) == pytest.approx(x, abs=1e-8)


# One failing call per guard of this module's records.
GUARD_CASES = {
    "interval-nonfinite": (lambda: Interval(0.0, math.inf), OutOfRange),
    "interval-reversed": (lambda: Interval(1.0, 0.0), OutOfRange),
}


@pytest.mark.parametrize("call, error", GUARD_CASES.values(), ids=GUARD_CASES)
def test_guard_raises_typed(call, error):
    with pytest.raises(error):
        call()


def test_stage_names_an_error_without_args():
    with pytest.raises(TooFewObservations) as exc:
        with stage("point"):
            raise TooFewObservations()
    assert exc.value.stage == "point"
    assert exc.value.args == ("point",)


class TestWaldInterval:
    def test_zero_variance_degenerate(self):
        assert wald_interval(0.8, 0.0, 100, 0.95) == Interval(0.8, 0.8)

    def test_unit_gamma(self):
        iv = wald_interval(0.8, 1.0, 100, 0.95)
        assert iv.lo == pytest.approx(0.8 - 0.1959964, abs=1e-6)
        assert iv.hi == pytest.approx(0.8 + 0.1959964, abs=1e-6)

    def test_arithmetic(self):
        iv = wald_interval(0.5, 2.0, 400, 0.95)
        assert iv.lo == pytest.approx(0.304, abs=1e-5)
        assert iv.hi == pytest.approx(0.696, abs=1e-5)

    @given(
        st.floats(min_value=-5, max_value=5, allow_nan=False),
        st.floats(min_value=0, max_value=10, allow_nan=False),
        st.integers(min_value=1, max_value=10_000),
        st.floats(min_value=0.01, max_value=0.99),
    )
    def test_symmetric_about_center(self, center, gamma, n, alpha):
        iv = wald_interval(center, gamma, n, alpha)
        assert iv.hi - center == pytest.approx(center - iv.lo, abs=1e-12)

    def test_width_strictly_increasing_in_gamma(self):
        widths = [wald_interval(0.0, g, 50, 0.9).width for g in (0.5, 1.0, 2.0, 4.0)]
        assert all(a < b for a, b in zip(widths, widths[1:]))

    def test_preconditions(self):
        with pytest.raises(OutOfRange):
            wald_interval(0.0, -1.0, 10, 0.95)
        with pytest.raises(OutOfRange):
            wald_interval(0.0, 1.0, 0, 0.95)
        with pytest.raises(OutOfRange):
            wald_interval(0.0, 1.0, 10, 1.0)


@pytest.mark.parametrize("method", list(METHODS))
def test_alpha_without_quantile_rejected_before_estimation(method):
    # (1 + alpha)/2 rounds to 1: every method's settings check rejects it
    # before any estimation, where it used to fail only at the interval
    data = generate_dgp(DgpConfig(b=0.5, n=60, seed=1))
    with pytest.raises(OutOfRange, match="^alpha"):
        METHODS[method].run(data, nu=0.5, alpha=1.0 - 2.0**-53, seed=1, tau=0.5,
                            regressor="local-linear", s_index=0)


def _estimate(a_hat, a_tilde, g_hat, nu=0.5, n=100, alpha=0.95, method="mean-linear"):
    return UtilityEstimate.from_raw(
        a_hat=a_hat,
        a_tilde=a_tilde,
        g_hat=g_hat,
        nu=nu,
        n=n,
        alpha=alpha,
        method=method,
    )


class TestRelativeUtility:
    def test_no_utility_case(self):
        est = _estimate(1.0, 1.0, 0.0)
        rel = relative_utility(est)
        assert rel.point == 0.0
        assert rel.ci == Interval(0.0, 0.0)

    def test_linear_map(self):
        # theta 0.5 at nu 0.5, interval half-width (1 - nu) g u / sqrt(n) = 0.1
        est = _estimate(0.0, 0.0, 2.0 / normal_quantile(0.975))
        rel = relative_utility(est)
        assert rel.point == pytest.approx(1.0, abs=1e-12)
        assert rel.ci.lo == pytest.approx(0.8, abs=1e-12)
        assert rel.ci.hi == pytest.approx(1.2, abs=1e-12)

    @given(
        st.floats(min_value=0.01, max_value=0.99),
        st.floats(min_value=0.0, max_value=2.0),
        st.floats(min_value=0.0, max_value=0.9),
    )
    @settings(max_examples=200)
    def test_roundtrip_inverse(self, a, g, nu):
        est = _estimate(a, a, g, nu=nu)
        rel = relative_utility(est)
        # algebraic inverse of the reporting transform
        back_point = 1.0 - rel.point * (1.0 - nu)
        back_lo = 1.0 - rel.ci.hi * (1.0 - nu)
        back_hi = 1.0 - rel.ci.lo * (1.0 - nu)
        assert back_point == pytest.approx(est.theta_hat, abs=1e-12)
        assert back_lo == pytest.approx(est.ci.lo, abs=1e-12)
        assert back_hi == pytest.approx(est.ci.hi, abs=1e-12)


class TestUtilityEstimateInvariants:
    def test_truncations_derived(self):
        est = _estimate(1.4, 1.2, 0.3)
        assert est.theta_hat_raw == pytest.approx(1.2, abs=1e-15)
        assert est.ci_raw.lo > 1.0
        assert est.theta_hat == 1.0
        assert est.ci == Interval(1.0, 1.0)

    def test_bad_nu_rejected(self):
        with pytest.raises(OutOfRange):
            _estimate(0.0, 0.0, 0.1, nu=1.0)

    @pytest.mark.parametrize(
        "bad",
        [
            {"g_hat": -1.0},
            {"g_hat": math.inf},
            {"g_hat": math.nan},
            {"a_hat": math.nan},
            # (1 + alpha)/2 rounds to 1, so u_{(1+alpha)/2} does not exist
            {"alpha": 1.0 - 2.0**-53},
            {"n": 0},
        ],
        ids=["g-negative", "g-inf", "g-nan", "a_hat-nan", "alpha-no-quantile", "n-zero"],
    )
    def test_bad_core_rejected_at_construction(self, bad):
        # every property is then total: nothing can raise on a later read
        with pytest.raises(OutOfRange):
            _estimate(**({"a_hat": 0.5, "a_tilde": 0.5, "g_hat": 1.0} | bad))


AFFINE_CASES = [
    ("mean-linear", "local-linear"),
    ("mean-conditional", "local-linear"),
    ("mean-conditional", "k-nn"),
    ("quantile", "local-linear"),
    ("quantile", "k-nn"),
    ("linreg", "local-linear"),
]


@pytest.mark.parametrize("method, regressor", AFFINE_CASES)
def test_estimates_affine_in_nu_bit_for_bit(method, regressor):
    # finalize is the only place nu enters: every method's estimates at nu
    # are its nu = 0 estimates mapped by theta -> nu + (1 - nu) theta and
    # gamma -> (1 - nu) gamma, with no other rounding
    data = generate_dgp(DgpConfig(b=0.5, n=200, seed=5))

    def run(nu):
        return METHODS[method].run(data, nu=nu, alpha=0.95, seed=5, tau=0.5,
                                   regressor=regressor, s_index=0)

    base = run(0.0)
    for nu in (0.3, 0.7):
        est = run(nu)
        assert est.theta_hat_raw == nu + (1 - nu) * base.theta_hat_raw
        if base.theta_tilde_raw is None:
            assert est.theta_tilde_raw is None
        else:
            assert est.theta_tilde_raw == nu + (1 - nu) * base.theta_tilde_raw
        assert est.gamma_hat == (1 - nu) * base.gamma_hat
        # the record stores only the core, so re-mapping it is the run at nu
        assert dataclasses.replace(base, nu=nu) == est


@pytest.mark.parametrize("method, regressor", [("mean-conditional", "local-linear"),
                                               ("mean-conditional", "k-nn"),
                                               ("quantile", "local-linear")])
def test_one_dimensional_covariate_is_one_column(method, regressor):
    # Dataset is the one place where a 1-d covariate becomes a column
    data = generate_dgp(DgpConfig(b=0.5, n=200, seed=5))
    flat = Dataset(data.y, data.x[:, 0].copy())
    column = Dataset(data.y, data.x[:, :1].copy())
    assert flat.x.shape == (200, 1)

    def run(d):
        return METHODS[method].run(d, nu=0.5, alpha=0.95, seed=5, tau=0.5, regressor=regressor)

    assert repr(run(flat)) == repr(run(column))
