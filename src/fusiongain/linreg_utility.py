"""Utility assessment for multiple linear regression with an external
univariate-regression estimate.

Model: Y = mu' X + eps with mean-zero covariates (no intercept) and
homoskedastic errors.  The prospective external information is a univariate
least-squares slope of Y on one designated covariate column S (the keyword
``s_index`` of :func:`assess_linreg`) computed from N additional observations.  The utility is nu + (1 - nu) a, where
nu = n / (n + N); :func:`core.finalize` applies that map.  This module
computes the nu-free core a = 1 - sigma^2 / (alpha kappa), a closed form in
five sample moments, so the point estimate is direct, its asymptotic variance
is positive under mild conditions, and the confidence interval is centered at
the point estimate itself (no split estimator is needed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import UtilityEstimate, check_settings, finalize, plug_in_variance, ratio_estimate
from .errors import (
    DegenerateResidualVariance,
    OutOfRange,
    SingularDesign,
    TooFewObservations,
    stage,
)
from .nuisance import Dataset, equilibrated_solve, unit_scaled


@dataclass(frozen=True)
class LinRegComponents:
    """The moment estimators of the bound traces, the composite's rows, and where S is.

    residuals: Y - mu_hat'X, mu_hat the least-squares fit of Y on X (no intercept);
    s_gap: Y - eta_hat S, with eta_hat the univariate slope of Y on the S column;
    sigma_inv: inverse of Sigma = X'X / n, from its gated Cholesky factor;
    kappa_hat: its trace;
    sigma_hat: root mean squared residual of the full regression;
    alpha_hat: mean of S^2 s_gap^2;
    s_index: the column of X that is S.
    """

    residuals: np.ndarray
    s_gap: np.ndarray
    sigma_inv: np.ndarray
    kappa_hat: float
    sigma_hat: float
    alpha_hat: float
    s_index: int


def fit_components(data: Dataset, s_index: int = 0) -> LinRegComponents:
    x = data.x
    y = data.y
    n, p = x.shape
    if not 0 <= s_index < p:
        raise OutOfRange(f"s_index must be in [0, {p - 1}], got {s_index}")
    gram, xty = x.T @ x, x.T @ y
    solved = equilibrated_solve(gram / n, xty[:, None] / n)
    if solved is None:
        raise SingularDesign(
            "covariate second-moment matrix is not (numerically) positive definite"
        )
    mu_hat, sigma_inv = solved[0][:, 0], solved[1]
    s = x[:, s_index]
    kappa_hat = float(np.trace(sigma_inv))
    # S'y and S'S from the products above: a BLAS dot of more than 10,000
    # entries is split across threads, which moves its last bits
    eta_hat = float(xty[s_index] / gram[s_index, s_index])
    residuals = y - x @ mu_hat
    s_gap = y - eta_hat * s
    sigma_sq = float(np.mean(residuals**2))
    alpha_hat = float(np.mean(s**2 * s_gap**2))
    sigma_hat = math.sqrt(sigma_sq)
    return LinRegComponents(
        residuals=residuals,
        s_gap=s_gap,
        sigma_inv=sigma_inv,
        kappa_hat=kappa_hat,
        sigma_hat=sigma_hat,
        alpha_hat=alpha_hat,
        s_index=s_index,
    )


def influence_composite(data: Dataset, comp: LinRegComponents) -> np.ndarray:
    """Per-observation composite whose sample variance drives the variance plug-in.

    v_i = (Y_i - mu'X_i)^2 + (sigma^2/kappa) * tr(Sigma^-1 X_i X_i' Sigma^-1)
        - (sigma^2/alpha) * [S_i^2 (Y_i - eta S_i)^2
                             - 2 mean(S^3 (Y - eta S)) S_i (Y_i - eta S_i) / mean(S^2)]
    """
    x = data.x
    trace_term = np.sum((x @ comp.sigma_inv) ** 2, axis=1)
    s = x[:, comp.s_index]
    s_resid = s * comp.s_gap
    third_moment = float(np.mean(s**2 * s_resid))  # mean of S^3 (Y - eta S)
    mean_s_sq = float(np.mean(s**2))
    s_block = s_resid**2 - 2.0 * third_moment * s_resid / mean_s_sq
    sigma_sq = comp.sigma_hat**2
    return (
        comp.residuals**2
        + (sigma_sq / comp.kappa_hat) * trace_term
        - (sigma_sq / comp.alpha_hat) * s_block
    )


def _alpha_kappa(comp: LinRegComponents) -> float:
    """The product alpha kappa that scales both the core and its variance.
    Exact-fit data (alpha = 0), or a product below about 1.6e-162, whose
    square underflows to 0, raise :class:`DegenerateResidualVariance`."""
    alpha_kappa = comp.alpha_hat * comp.kappa_hat
    if alpha_kappa**2 == 0.0:
        raise DegenerateResidualVariance(f"alpha kappa is {alpha_kappa:.3g}: its square "
                                         "underflows to 0 (exact-fit data give 0)")
    return alpha_kappa


def variance_linreg(data: Dataset, comp: LinRegComponents, alpha_kappa: float) -> float:
    """Plug-in g^2 = Var(v) / (alpha kappa)^2, divisor n - 1:
    :func:`~fusiongain.core.plug_in_variance` of the composite over the point
    stage's ``alpha_kappa``, with no split; a constant composite gives 0."""
    return plug_in_variance(influence_composite(data, comp), alpha_kappa, c=1.0)


def assess_linreg(
    data: Dataset, *, nu: float, alpha: float = 0.95, s_index: int = 0
) -> UtilityEstimate:
    """Full assessment: the data through :func:`unit_scaled`, moment
    components and the point core a = 1 - sigma^2 / (alpha kappa), then
    :func:`finalize` (no split estimator, so the interval is centered at the
    point estimate).  Stage ``data`` refuses n <= p, where the least-squares
    fit is exact or undetermined."""
    check_settings(nu=nu, alpha=alpha)
    with stage("data"):
        if data.n <= data.p:
            raise TooFewObservations(
                f"linreg needs more rows than covariates, n > p, got n={data.n}, p={data.p}")
        data = unit_scaled(data, common_x=True)
    with stage("components"):
        comp = fit_components(data, s_index)
    with stage("point"):
        alpha_kappa = _alpha_kappa(comp)
        a_hat = 1.0 - ratio_estimate(comp.sigma_hat**2, alpha_kappa)
    return finalize(a_hat, None, lambda: variance_linreg(data, comp, alpha_kappa),
                    data.n, nu, alpha, "linreg")
