"""Utility assessment for response-quantile estimation with external covariate data.

The utility is nu + (1 - nu) a, where nu = n / (n + N) encodes how much
external covariate data is contemplated; :func:`core.finalize` applies that
map.  This module computes the nu-free core.  For the tau-quantile target the
internal-only bound trace is the known constant tau(1-tau) (the marginal
density factor cancels in the ratio), so a is the average squared
discrepancy between the indicator 1(Y < mu_hat) and a cross-fitted
conditional-CDF regression at the empirical quantile mu_hat, divided by
tau(1-tau).  The variance plug-in additionally needs kernel density
estimates of the marginal and conditional response densities at the
quantile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import UtilityEstimate, check_settings, finalize, ratio_estimate
from .errors import OutOfRange, TooFewObservations, VanishingDensity, stage
from .nuisance import (
    REGRESSOR_KINDS,
    Dataset,
    KernelDensity,
    cond_kde_profile,
    crossfit_predict,
    empirical_quantile,
    kde_eval,
    make_split_plan,
    silverman_bandwidth,
    split_halves,
)

DENSITY_FLOOR = 1e-12


@dataclass(frozen=True)
class QuantileAssessmentConfig:
    nu: float
    tau: float = 0.5
    n_folds: int = 5
    alpha: float = 0.95
    seed: int = 0
    cdf_regressor: str = "local-linear"

    def __post_init__(self):
        check_settings(self.nu, self.alpha, self.n_folds)
        if not 0.0 < self.tau < 1.0:
            raise OutOfRange(f"tau must be in (0, 1), got {self.tau}")
        if self.cdf_regressor not in REGRESSOR_KINDS:
            raise OutOfRange(f"cdf_regressor must be one of {REGRESSOR_KINDS}")

    @property
    def theta2(self) -> float:
        return self.tau * (1.0 - self.tau)


def _cdf_crossfit(data: Dataset, cfg: QuantileAssessmentConfig, threshold: float) -> np.ndarray:
    """Cross-fitted conditional CDF at ``threshold``: the regression of the
    indicators 1(y < threshold) on x, clamped to [0, 1]."""
    plan = make_split_plan(data.n, cfg.n_folds, cfg.seed)
    indicators = Dataset((data.y < threshold).astype(float), data.x)
    return np.clip(crossfit_predict(indicators, plan, cfg.cdf_regressor), 0.0, 1.0)


def _squared_gaps(y: np.ndarray, threshold: float, fhat: np.ndarray) -> np.ndarray:
    """(1(y < threshold) - Fhat)^2, the per-observation CDF discrepancy."""
    return ((y < threshold).astype(float) - fhat) ** 2


def compute_quantile_intermediates(
    data: Dataset, cfg: QuantileAssessmentConfig
) -> tuple[float, np.ndarray]:
    """The empirical tau-quantile mu_hat and the cross-fitted conditional CDF
    Fhat at mu_hat (clamped to [0, 1])."""
    mu_hat = empirical_quantile(data.y, cfg.tau)
    return mu_hat, _cdf_crossfit(data, cfg, mu_hat)


def split_estimate_quantile(data: Dataset, cfg: QuantileAssessmentConfig) -> float:
    """Half-sample core a_tilde: quantile from the second half, discrepancies
    from the first.

    The threshold is the empirical tau-quantile of the second half, the
    conditional-CDF regression is cross-fitted within the first half at that
    threshold.
    """
    half, rest = split_halves(data)
    mu_tilde = empirical_quantile(rest.y, cfg.tau)
    fhat = _cdf_crossfit(half, cfg, mu_tilde)
    return float(np.mean(_squared_gaps(half.y, mu_tilde, fhat))) / cfg.theta2


def variance_quantile(
    data: Dataset, cfg: QuantileAssessmentConfig, mu_hat: float, fhat: np.ndarray
) -> float:
    """Plug-in g^2 = 2 A^2 / {tau(1-tau)} + 2 Var[(1(Y<mu_hat) - Fhat)^2] / {tau(1-tau)}^2,
    with A = 2 * mean[Fhat_i * fhat_{Y|X}(mu_hat | X_i)] / fhat_Y(mu_hat) - 1
    and divisor n - 1.

    All density plug-ins are evaluated at the full-sample empirical quantile;
    bandwidths follow the rule of thumb (per covariate dimension for the
    conditional estimate).
    """
    if data.n < 2:
        raise TooFewObservations("variance needs at least two observations")
    h_y = silverman_bandwidth(data.y)
    f_y = kde_eval(KernelDensity(data.y, h_y), mu_hat)
    if f_y <= DENSITY_FLOOR:
        raise VanishingDensity(
            f"marginal density estimate at the quantile is {f_y:.3e}"
        )
    h_x = silverman_bandwidth(data.x)
    f_cond = cond_kde_profile(data.x, data.y, h_x, h_y, data.x, mu_hat)
    slope = 2.0 * float(np.mean(fhat * f_cond)) / f_y - 1.0
    var_sq = float(np.var(_squared_gaps(data.y, mu_hat, fhat), ddof=1))
    return 2.0 * slope**2 / cfg.theta2 + 2.0 * var_sq / cfg.theta2**2


def assess_quantile(data: Dataset, cfg: QuantileAssessmentConfig) -> UtilityEstimate:
    """Full assessment: the point and half-sample cores, then :func:`finalize`
    (the interval is centered at the split estimate)."""
    with stage("point"):
        mu_hat, fhat = compute_quantile_intermediates(data, cfg)
        a_hat = ratio_estimate(float(np.mean(_squared_gaps(data.y, mu_hat, fhat))), cfg.theta2)
    with stage("split"):
        a_tilde = split_estimate_quantile(data, cfg)
    return finalize(a_hat, a_tilde, lambda: variance_quantile(data, cfg, mu_hat, fhat),
                    data.n, cfg.nu, cfg.alpha, "quantile")
