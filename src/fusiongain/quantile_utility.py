"""Utility assessment for response-quantile estimation with external covariate data.

The utility is nu + (1 - nu) a, where nu = n / (n + N) encodes how much
external covariate data is contemplated; :func:`core.finalize` applies that
map.  This module computes the nu-free core: the mean's
:func:`~fusiongain.mean_utility.residual_core` on the indicator Z = 1(Y < mu_hat)
at the empirical tau-quantile mu_hat, clamped to [0, 1], over the known
variance tau(1-tau) of Z (the marginal density factor cancels in the ratio).
The variance plug-in adds a density-slope term from kernel density estimates
of the marginal and conditional response densities at the quantile.
:func:`assess_quantile` takes tau, the ``regressor`` of the conditional CDF
and the fold ``seed`` as keywords.
"""

from __future__ import annotations

import numpy as np

from .core import UtilityEstimate, finalize, ratio_estimate
from .errors import PlanMismatch, TooFewObservations, VanishingDensity, stage
from .nuisance import (
    Dataset,
    cond_kde_profile,
    empirical_quantile,
    kde_eval,
    silverman_bandwidth,
    split_halves,
)
from .mean_utility import residual_core, split_data_stage

# Floor on f_Y(mu) times the bandwidth of y: unit-free, so rescaling y moves
# neither the estimate nor the floor decision.
DENSITY_FLOOR = 1e-12


def _indicator(data: Dataset, threshold: float) -> Dataset:
    """Z = 1(y < threshold) on the covariates of ``data``."""
    return Dataset((data.y < threshold).astype(float), data.x)


def compute_quantile_intermediates(
    data: Dataset, tau: float, regressor: str, seed: int
) -> tuple[float, np.ndarray, float]:
    """The empirical tau-quantile mu_hat, the cross-fitted conditional CDF
    Fhat at mu_hat (clamped to [0, 1]) and the point core a_hat: the
    residual trace of 1(Y < mu_hat) over tau(1-tau).  With no Y below mu_hat
    the indicator is 0 in every row and a_hat is 0 by construction, so that
    sample raises :class:`TooFewObservations`; so does the mirror case, no Y
    above mu_hat, where the empirical quantile is the sample maximum."""
    mu_hat = empirical_quantile(data.y, tau)
    if not np.any(data.y < mu_hat):
        raise TooFewObservations(f"no observation lies below the empirical {tau}-quantile")
    if not np.any(data.y > mu_hat):
        raise TooFewObservations(f"no observation lies above the empirical {tau}-quantile")
    fhat, sq = residual_core(_indicator(data, mu_hat), regressor, seed, (0.0, 1.0))
    return mu_hat, fhat, ratio_estimate(sq, tau * (1.0 - tau))


def split_estimate_quantile(data: Dataset, tau: float, regressor: str, seed: int) -> float:
    """Half-sample core a_tilde: quantile from the second half, discrepancies
    from the first.

    The threshold is the empirical tau-quantile of the second half, the
    conditional-CDF regression is cross-fitted within the first half at that
    threshold.
    """
    half, rest = split_halves(data.n)
    mu_tilde = empirical_quantile(data.y[rest], tau)
    sq = residual_core(_indicator(data.take(half), mu_tilde), regressor, seed, (0.0, 1.0))[1]
    return ratio_estimate(sq, tau * (1.0 - tau))


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
    the sample.  An ``fhat`` of the wrong length raises :class:`PlanMismatch`.
    """
    fhat = np.asarray(fhat, dtype=float)
    if fhat.shape != data.y.shape:
        raise PlanMismatch(f"predictions must have length {data.n}, got shape {fhat.shape}")
    var_sq = float(np.var(((data.y < mu_hat) - fhat) ** 2, ddof=1))
    h_y = silverman_bandwidth(data.y)
    f_y = kde_eval(data.y, h_y, mu_hat)
    if f_y * h_y <= DENSITY_FLOOR:
        raise VanishingDensity(f"marginal density estimate at the quantile is {f_y:.3e}, "
                               f"{f_y * h_y:.3e} per bandwidth")
    h_x = silverman_bandwidth(data.x)
    f_cond = cond_kde_profile(data.x, data.y, h_x, h_y, data.x, mu_hat)
    slope = 2.0 * float(np.mean(fhat * f_cond)) / f_y - 1.0
    theta2 = tau * (1.0 - tau)
    return 2.0 * slope**2 / theta2 + 2.0 * var_sq / theta2**2


def assess_quantile(data: Dataset, *, nu: float, alpha: float = 0.95, seed: int = 0,
                    tau: float = 0.5, regressor: str = "local-linear") -> UtilityEstimate:
    """Full assessment: the mean's :func:`~fusiongain.mean_utility.split_data_stage`,
    the point and half-sample cores, then :func:`finalize` (the interval is
    centered at the split estimate)."""
    data = split_data_stage(data, nu, alpha, regressor)
    with stage("point"):
        mu_hat, fhat, a_hat = compute_quantile_intermediates(data, tau, regressor, seed)
    with stage("split"):
        a_tilde = split_estimate_quantile(data, tau, regressor, seed)
    return finalize(a_hat, a_tilde, lambda: variance_quantile(data, tau, mu_hat, fhat),
                    data.n, nu, alpha, "quantile")
