"""Estimator arithmetic vs the independent brute-force reference, at 1e-8.

Twenty seeded datasets at n in {50, 200}, where every training fold has more
than 20 rows, and six at n in {19, 26}, where some have 20 or fewer (all five
at n = 19, one at n = 26), so that no kernel row of theirs can reach
local-linear's floor of 20.  The point and split estimates and gamma_hat^2 of
``assess_*`` for every method (mean-conditional with both the local-linear and
the k-NN regressor) are compared against the loop-based transcription in
reference_impl.py, with fold assignments passed through as data.
"""

import pytest

from fusiongain.linreg_utility import assess_linreg
from fusiongain.mean_utility import assess_mean
from fusiongain.nuisance import make_split_plan
from fusiongain.quantile_utility import assess_quantile
from fusiongain.simulation import DgpConfig, generate_dgp
from reference_impl import (
    ref_linreg_gamma_sq,
    ref_linreg_point,
    ref_mean_gamma_sq,
    ref_mean_point,
    ref_mean_split,
    ref_quantile_gamma_sq,
    ref_quantile_point,
    ref_quantile_split,
)

TOL = 1e-8

CASES = [
    # (case id, n, b, nu, tau)
    (i, n, b, nu, tau)
    for i, (n, b, nu, tau) in enumerate(
        [
            (n, b, nu, tau)
            for n in (50, 200)
            for b, nu, tau in (
                (0.0, 0.5, 0.5),
                (0.5, 0.5, 0.25),
                (1.0, 0.3, 0.5),
                (0.5, 0.7, 0.75),
                (1.0, 0.5, 0.25),
                (0.0, 0.3, 0.25),
                (0.5, 0.0, 0.5),
                (1.0, 0.7, 0.5),
                (0.25, 0.5, 0.4),
                (0.75, 0.5, 0.6),
            )
        ]
        + [
            (n, b, nu, tau)
            for n in (19, 26)
            for b, nu, tau in ((0.5, 0.5, 0.25), (1.0, 0.3, 0.5), (0.0, 0.7, 0.75))
        ]
    )
]

assert len(CASES) == 26


def _dataset(case_id, n, b):
    return generate_dgp(DgpConfig(b=b, n=n, seed=1000 + case_id))


def _assert_mean_matches_reference(case_id, n, b, nu, regressor, mode):
    data = _dataset(case_id, n, b)
    plan = make_split_plan(n, seed=case_id)

    est = assess_mean(data, nu=nu, regressor=regressor, seed=case_id)
    expected, _ = ref_mean_point(data.y, data.x, nu, plan, mode)
    assert est.theta_hat_raw == pytest.approx(expected, abs=TOL)

    expected_tilde = ref_mean_split(data.y, data.x, nu, plan, mode)
    assert est.theta_tilde_raw == pytest.approx(expected_tilde, abs=TOL)

    expected_gamma = ref_mean_gamma_sq(data.y, data.x, nu, plan, mode)
    assert est.gamma_hat**2 == pytest.approx(expected_gamma, abs=TOL)


@pytest.mark.parametrize("case_id,n,b,nu,tau", CASES)
def test_mean_linear_matches_reference(case_id, n, b, nu, tau):
    _assert_mean_matches_reference(case_id, n, b, nu, "ols-linear", "linear")


@pytest.mark.parametrize("case_id,n,b,nu,tau", CASES)
def test_mean_conditional_matches_reference(case_id, n, b, nu, tau):
    _assert_mean_matches_reference(case_id, n, b, nu, "local-linear", "local-linear")


@pytest.mark.parametrize("case_id,n,b,nu,tau", CASES)
def test_mean_conditional_knn_matches_reference(case_id, n, b, nu, tau):
    _assert_mean_matches_reference(case_id, n, b, nu, "k-nn", "k-nn")


@pytest.mark.parametrize("case_id,n,b,nu,tau", CASES)
def test_quantile_matches_reference(case_id, n, b, nu, tau):
    data = _dataset(case_id, n, b)
    plan = make_split_plan(n, seed=case_id)

    est = assess_quantile(data, nu=nu, tau=tau, seed=case_id)
    expected, _, _ = ref_quantile_point(data.y, data.x, nu, tau, plan)
    assert est.theta_hat_raw == pytest.approx(expected, abs=TOL)

    expected_tilde = ref_quantile_split(
        data.y, data.x, nu, tau, plan
    )
    assert est.theta_tilde_raw == pytest.approx(expected_tilde, abs=TOL)

    expected_gamma = ref_quantile_gamma_sq(
        data.y, data.x, nu, tau, plan
    )
    assert est.gamma_hat**2 == pytest.approx(expected_gamma, abs=TOL)


@pytest.mark.parametrize("case_id,n,b,nu,tau", CASES)
def test_linreg_matches_reference(case_id, n, b, nu, tau):
    data = _dataset(case_id, n, b)
    est = assess_linreg(data, nu=nu)
    assert est.theta_hat_raw == pytest.approx(ref_linreg_point(data.y, data.x, 0, nu), abs=TOL)
    assert est.gamma_hat**2 == pytest.approx(
        ref_linreg_gamma_sq(data.y, data.x, 0, nu), abs=TOL
    )
