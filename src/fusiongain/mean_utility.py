"""Utility assessment for mean-response estimation with external covariate data.

The two bound traces are sample averages of squared residuals: the
internal-only trace is the variance of Y around its mean, the with-fusion
trace mixes residuals around a cross-fitted regression g(X) (weight 1 - nu)
with residuals around the mean (weight nu), where nu = n / (n + N) encodes
how much external covariate data is contemplated.  Two g targets are
supported: the conditional mean E(Y | X), for external individual covariate
records, and the best linear predictor including an intercept, for an
external covariate average.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import UtilityEstimate, check_settings, finalize, ratio_estimate
from .errors import (
    DegenerateDenominator,
    DegenerateVariance,
    OutOfRange,
    PlanMismatch,
    TooFewObservations,
    stage,
)
from .nuisance import REGRESSOR_KINDS, Dataset, crossfit_predict, make_split_plan

G_MODES = ("linear", "conditional-mean")


@dataclass(frozen=True)
class MeanAssessmentConfig:
    nu: float
    g_mode: str = "linear"
    n_folds: int = 5
    alpha: float = 0.95
    seed: int = 0
    regressor: str = "local-linear"  # conditional-mean mode only
    bandwidth: float | None = None
    n_neighbors: int | None = None

    def __post_init__(self):
        check_settings(self.nu, self.alpha, self.n_folds)
        if self.g_mode not in G_MODES:
            raise OutOfRange(f"g_mode must be one of {G_MODES}, got {self.g_mode!r}")
        if self.regressor not in REGRESSOR_KINDS:
            raise OutOfRange(f"regressor must be one of {REGRESSOR_KINDS}")

    @property
    def method(self) -> str:
        return "mean-linear" if self.g_mode == "linear" else "mean-conditional"

    @property
    def regressor_kind(self) -> str:
        return "ols-linear" if self.g_mode == "linear" else self.regressor


@dataclass(frozen=True)
class MeanIntermediates:
    mu_hat: float
    ghat: np.ndarray
    theta1_hat: float
    theta2_hat: float


def estimate_bounds_mean(data: Dataset, cfg: MeanAssessmentConfig, ghat) -> tuple[float, float]:
    """Plug-in bound traces (theta1, theta2) from given nuisance predictions.

    theta1 = mean[(1-nu)(y - ghat)^2 + nu (y - ybar)^2], theta2 = mean[(y - ybar)^2].
    """
    ghat = np.asarray(ghat, dtype=float)
    if ghat.shape != (data.n,):
        raise PlanMismatch(f"ghat must have length {data.n}, got shape {ghat.shape}")
    mu_hat = float(np.mean(data.y))
    sq_mean = (data.y - mu_hat) ** 2
    theta2 = float(np.mean(sq_mean))
    if theta2 <= 0.0:
        raise DegenerateDenominator("response is constant; internal-only trace is zero")
    sq_g = (data.y - ghat) ** 2
    theta1 = float(np.mean((1.0 - cfg.nu) * sq_g + cfg.nu * sq_mean))
    return theta1, theta2


def compute_mean_intermediates(data: Dataset, cfg: MeanAssessmentConfig) -> MeanIntermediates:
    plan = make_split_plan(data.n, cfg.n_folds, cfg.seed)
    ghat = crossfit_predict(
        data,
        plan,
        cfg.regressor_kind,
        target="cond-mean",
        bandwidth=cfg.bandwidth,
        n_neighbors=cfg.n_neighbors,
    )
    theta1, theta2 = estimate_bounds_mean(data, cfg, ghat)
    return MeanIntermediates(
        mu_hat=float(np.mean(data.y)),
        ghat=ghat,
        theta1_hat=theta1,
        theta2_hat=theta2,
    )


def point_estimate_mean(data: Dataset, cfg: MeanAssessmentConfig) -> float:
    """Raw point estimate: ratio of the two plug-in traces (always >= nu)."""
    im = compute_mean_intermediates(data, cfg)
    return ratio_estimate(im.theta1_hat, im.theta2_hat)


def split_estimate_mean(data: Dataset, cfg: MeanAssessmentConfig) -> float:
    """Half-sample estimate whose first-order term cannot vanish.

    The g-residual average uses the first ceil(n/2) observations (with
    cross-fitting inside that half); the mean-residual average uses the rest,
    each normalized by its own count.  The centering mean is the full-sample
    mean.
    """
    n = data.n
    n_half = math.ceil(n / 2)
    if n - n_half < 1:
        raise TooFewObservations("split estimate needs a nonempty second half")
    half = data.take(np.arange(n_half))
    plan = make_split_plan(n_half, cfg.n_folds, cfg.seed)
    ghat = crossfit_predict(
        half,
        plan,
        cfg.regressor_kind,
        target="cond-mean",
        bandwidth=cfg.bandwidth,
        n_neighbors=cfg.n_neighbors,
    )
    mu_hat = float(np.mean(data.y))
    numerator = float(np.mean((half.y - ghat) ** 2))
    denominator = float(np.mean((data.y[n_half:] - mu_hat) ** 2))
    if denominator <= 0.0:
        raise DegenerateDenominator("second-half residuals around the mean are all zero")
    return (1.0 - cfg.nu) * numerator / denominator + cfg.nu


def variance_terms_mean(
    data: Dataset, cfg: MeanAssessmentConfig, im: MeanIntermediates
) -> tuple[float, float]:
    """The two nonnegative summands of the plug-in asymptotic variance.

    gamma^2 = 2(1-nu)^2 Var[(Y-ghat)^2] / theta2^2
            + 2(theta1 - nu*theta2)^2 Var[(Y-ybar)^2] / theta2^4,
    with sample variances using divisor n-1.
    """
    if im.theta2_hat <= 0.0:
        raise DegenerateDenominator("internal-only trace must be positive")
    if data.n < 2:
        raise TooFewObservations("variance needs at least two observations")
    sq_g = (data.y - im.ghat) ** 2
    sq_mean = (data.y - im.mu_hat) ** 2
    var_g = float(np.var(sq_g, ddof=1))
    var_mean = float(np.var(sq_mean, ddof=1))
    if var_g == 0.0 and var_mean == 0.0:
        raise DegenerateVariance("both residual-square sequences are constant")
    term_g = 2.0 * (1.0 - cfg.nu) ** 2 * var_g / im.theta2_hat**2
    term_mean = (
        2.0
        * (im.theta1_hat - cfg.nu * im.theta2_hat) ** 2
        * var_mean
        / im.theta2_hat**4
    )
    return term_g, term_mean


def variance_mean(data: Dataset, cfg: MeanAssessmentConfig, im: MeanIntermediates) -> float:
    term_g, term_mean = variance_terms_mean(data, cfg, im)
    return term_g + term_mean


def assess_mean(data: Dataset, cfg: MeanAssessmentConfig) -> UtilityEstimate:
    """Full assessment: raw point and split estimates, then :func:`finalize`
    (the interval is centered at the split estimate)."""
    with stage("point"):
        im = compute_mean_intermediates(data, cfg)
        theta_raw = ratio_estimate(im.theta1_hat, im.theta2_hat)
    with stage("split"):
        theta_tilde = split_estimate_mean(data, cfg)
    return finalize(theta_raw, theta_tilde, lambda: variance_mean(data, cfg, im),
                    data.n, cfg.nu, cfg.alpha, cfg.method)
