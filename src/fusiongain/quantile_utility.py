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
quantile.  :func:`assess_quantile` takes tau, the ``regressor`` of the
conditional CDF and the fold ``seed`` as keywords.
"""

from __future__ import annotations

import numpy as np

from .core import UtilityEstimate, check_settings, finalize, ratio_estimate, typed_overflow
from .errors import OutOfRange, TooFewObservations, VanishingDensity, stage
from .nuisance import (
    REGRESSOR_KINDS,
    Dataset,
    KernelDensity,
    cond_kde_profile,
    crossfit_predict,
    empirical_quantile,
    kde_eval,
    silverman_bandwidth,
    split_halves,
)

# Floor on f_Y(mu) times the bandwidth of y: unit-free, so rescaling y moves
# neither the estimate nor the floor decision.
DENSITY_FLOOR = 1e-12


def _cdf_crossfit(data: Dataset, regressor: str, seed: int, threshold: float) -> np.ndarray:
    """Cross-fitted conditional CDF at ``threshold``: the regression of the
    indicators 1(y < threshold) on x, clamped to [0, 1]."""
    indicators = Dataset((data.y < threshold).astype(float), data.x)
    return np.clip(crossfit_predict(indicators, regressor, seed), 0.0, 1.0)


def _squared_gaps(y: np.ndarray, threshold: float, fhat: np.ndarray) -> np.ndarray:
    """(1(y < threshold) - Fhat)^2, the per-observation CDF discrepancy."""
    return ((y < threshold).astype(float) - fhat) ** 2


def compute_quantile_intermediates(
    data: Dataset, tau: float, regressor: str, seed: int
) -> tuple[float, np.ndarray]:
    """The empirical tau-quantile mu_hat and the cross-fitted conditional CDF
    Fhat at mu_hat (clamped to [0, 1])."""
    mu_hat = empirical_quantile(data.y, tau)
    return mu_hat, _cdf_crossfit(data, regressor, seed, mu_hat)


def split_estimate_quantile(data: Dataset, tau: float, regressor: str, seed: int) -> float:
    """Half-sample core a_tilde: quantile from the second half, discrepancies
    from the first.

    The threshold is the empirical tau-quantile of the second half, the
    conditional-CDF regression is cross-fitted within the first half at that
    threshold.
    """
    half, rest = split_halves(data)
    mu_tilde = empirical_quantile(rest.y, tau)
    fhat = _cdf_crossfit(half, regressor, seed, mu_tilde)
    return float(np.mean(_squared_gaps(half.y, mu_tilde, fhat))) / (tau * (1.0 - tau))


@typed_overflow
def variance_quantile(
    data: Dataset, tau: float, mu_hat: float, fhat: np.ndarray
) -> float:
    """Plug-in g^2 = 2 A^2 / {tau(1-tau)} + 2 Var[(1(Y<mu_hat) - Fhat)^2] / {tau(1-tau)}^2,
    with A = 2 * mean[Fhat_i * fhat_{Y|X}(mu_hat | X_i)] / fhat_Y(mu_hat) - 1
    and divisor n - 1.

    All density plug-ins are evaluated at the full-sample empirical quantile;
    bandwidths follow the rule of thumb (per covariate dimension for the
    conditional estimate).  f_Y(mu_hat) times h_y must exceed
    ``DENSITY_FLOOR``, else :class:`VanishingDensity`.  At the empirical
    quantile, a sample point, the point's own kernel term alone gives
    f_Y(mu_hat) h_y >= 1 / (n sqrt(2 pi)), above the floor for every n below
    about 4e11; so the floor guards only direct calls with ``mu_hat`` off
    the sample.
    """
    if data.n < 2:
        raise TooFewObservations("variance needs at least two observations")
    h_y = silverman_bandwidth(data.y)
    f_y = kde_eval(KernelDensity(data.y, h_y), mu_hat)
    if f_y * h_y <= DENSITY_FLOOR:
        raise VanishingDensity(f"marginal density estimate at the quantile is {f_y:.3e}, "
                               f"{f_y * h_y:.3e} per bandwidth")
    h_x = silverman_bandwidth(data.x)
    f_cond = cond_kde_profile(data.x, data.y, h_x, h_y, data.x, mu_hat)
    slope = 2.0 * float(np.mean(fhat * f_cond)) / f_y - 1.0
    var_sq = float(np.var(_squared_gaps(data.y, mu_hat, fhat), ddof=1))
    theta2 = tau * (1.0 - tau)
    return 2.0 * slope**2 / theta2 + 2.0 * var_sq / theta2**2


def assess_quantile(data: Dataset, *, nu: float, alpha: float = 0.95, seed: int = 0,
                    tau: float = 0.5, regressor: str = "local-linear") -> UtilityEstimate:
    """Full assessment: the point and half-sample cores, then :func:`finalize`
    (the interval is centered at the split estimate)."""
    check_settings(nu, alpha)
    if not 0.0 < tau < 1.0:
        raise OutOfRange(f"tau must be in (0, 1), got {tau}")
    if regressor not in REGRESSOR_KINDS:
        raise OutOfRange(f"regressor must be one of {REGRESSOR_KINDS}")
    with stage("point"):
        mu_hat, fhat = compute_quantile_intermediates(data, tau, regressor, seed)
        a_hat = ratio_estimate(float(np.mean(_squared_gaps(data.y, mu_hat, fhat))),
                               tau * (1.0 - tau))
    with stage("split"):
        a_tilde = split_estimate_quantile(data, tau, regressor, seed)
    return finalize(a_hat, a_tilde, lambda: variance_quantile(data, tau, mu_hat, fhat),
                    data.n, nu, alpha, "quantile")
