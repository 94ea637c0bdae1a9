"""Utility assessment for response-quantile estimation with external covariate data.

For the tau-quantile target the internal-only bound trace is the known
constant tau(1-tau) (the marginal density factor cancels in the ratio), so
the estimate reduces to the average squared discrepancy between the indicator
1(Y < mu_hat) and a cross-fitted conditional-CDF regression at the empirical
quantile mu_hat, scaled by (1-nu)/{tau(1-tau)} and shifted by nu.  The
variance plug-in additionally needs kernel density estimates of the marginal
and conditional response densities at the quantile.
"""

from __future__ import annotations

import math
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
    bandwidth: float | None = None
    n_neighbors: int | None = None
    density_bandwidth: float | None = None  # None: rule of thumb on Y

    def __post_init__(self):
        check_settings(self.nu, self.alpha, self.n_folds)
        if not 0.0 < self.tau < 1.0:
            raise OutOfRange(f"tau must be in (0, 1), got {self.tau}")
        if self.cdf_regressor not in REGRESSOR_KINDS:
            raise OutOfRange(f"cdf_regressor must be one of {REGRESSOR_KINDS}")

    @property
    def theta2(self) -> float:
        return self.tau * (1.0 - self.tau)


@dataclass(frozen=True)
class QuantileIntermediates:
    mu_hat: float
    fhat: np.ndarray  # cross-fitted conditional CDF at mu_hat, clamped to [0, 1]
    theta1_hat: float


def _cdf_crossfit(data: Dataset, cfg: QuantileAssessmentConfig, threshold: float) -> np.ndarray:
    plan = make_split_plan(data.n, cfg.n_folds, cfg.seed)
    return crossfit_predict(
        data,
        plan,
        cfg.cdf_regressor,
        target="cond-cdf",
        threshold=threshold,
        bandwidth=cfg.bandwidth,
        n_neighbors=cfg.n_neighbors,
    )


def compute_quantile_intermediates(
    data: Dataset, cfg: QuantileAssessmentConfig
) -> QuantileIntermediates:
    mu_hat = empirical_quantile(data.y, cfg.tau)
    fhat = _cdf_crossfit(data, cfg, mu_hat)
    indicators = (data.y < mu_hat).astype(float)
    theta1 = (1.0 - cfg.nu) * float(np.mean((indicators - fhat) ** 2)) + cfg.nu * cfg.theta2
    return QuantileIntermediates(mu_hat=mu_hat, fhat=fhat, theta1_hat=theta1)


def point_estimate_quantile(data: Dataset, cfg: QuantileAssessmentConfig) -> float:
    """Raw point estimate; the denominator trace tau(1-tau) is known."""
    im = compute_quantile_intermediates(data, cfg)
    return ratio_estimate(im.theta1_hat, cfg.theta2)


def split_estimate_quantile(data: Dataset, cfg: QuantileAssessmentConfig) -> float:
    """Half-sample estimate: quantile from the second half, discrepancies from the first.

    The threshold is the empirical tau-quantile of the second half, the
    conditional-CDF regression is cross-fitted within the first half at that
    threshold.
    """
    n = data.n
    n_half = math.ceil(n / 2)
    if n - n_half < 1:
        raise TooFewObservations("split estimate needs a nonempty second half")
    mu_tilde = empirical_quantile(data.y[n_half:], cfg.tau)
    half = data.take(np.arange(n_half))
    fhat = _cdf_crossfit(half, cfg, mu_tilde)
    indicators = (half.y < mu_tilde).astype(float)
    discrepancy = float(np.mean((indicators - fhat) ** 2))
    return (1.0 - cfg.nu) * discrepancy / cfg.theta2 + cfg.nu


def variance_terms_quantile(
    data: Dataset, cfg: QuantileAssessmentConfig, im: QuantileIntermediates
) -> tuple[float, float]:
    """The two nonnegative summands of the plug-in asymptotic variance.

    First summand: 2(1-nu)^2 A^2 / {tau(1-tau)} with
    A = 2 * mean[Fhat_i * fhat_{Y|X}(mu_hat | X_i)] / fhat_Y(mu_hat) - 1;
    second: 2(1-nu)^2 Var[(1(Y<mu_hat) - Fhat)^2] / {tau(1-tau)}^2.
    All density plug-ins are evaluated at the full-sample empirical quantile;
    bandwidths follow the rule of thumb (per covariate dimension for the
    conditional estimate).
    """
    if data.n < 2:
        raise TooFewObservations("variance needs at least two observations")
    h_y = cfg.density_bandwidth
    if h_y is None:
        h_y = silverman_bandwidth(data.y)
    f_y = kde_eval(KernelDensity(data.y, h_y), im.mu_hat)
    if f_y <= DENSITY_FLOOR:
        raise VanishingDensity(
            f"marginal density estimate at the quantile is {f_y:.3e}"
        )
    h_x = np.array([silverman_bandwidth(data.x[:, d]) for d in range(data.p)])
    f_cond = cond_kde_profile(data.x, data.y, h_x, h_y, data.x, im.mu_hat)
    slope = 2.0 * float(np.mean(im.fhat * f_cond)) / f_y - 1.0
    term_density = 2.0 * (1.0 - cfg.nu) ** 2 * slope**2 / cfg.theta2
    indicators = (data.y < im.mu_hat).astype(float)
    var_sq = float(np.var((indicators - im.fhat) ** 2, ddof=1))
    term_dispersion = 2.0 * (1.0 - cfg.nu) ** 2 * var_sq / cfg.theta2**2
    return term_density, term_dispersion


def variance_quantile(
    data: Dataset, cfg: QuantileAssessmentConfig, im: QuantileIntermediates
) -> float:
    term_density, term_dispersion = variance_terms_quantile(data, cfg, im)
    return term_density + term_dispersion


def assess_quantile(data: Dataset, cfg: QuantileAssessmentConfig) -> UtilityEstimate:
    """Full assessment: raw point and split estimates, then :func:`finalize`
    (the interval is centered at the split estimate)."""
    with stage("point"):
        im = compute_quantile_intermediates(data, cfg)
        theta_raw = ratio_estimate(im.theta1_hat, cfg.theta2)
    with stage("split"):
        theta_tilde = split_estimate_quantile(data, cfg)
    return finalize(theta_raw, theta_tilde, lambda: variance_quantile(data, cfg, im),
                    data.n, cfg.nu, cfg.alpha, "quantile")
