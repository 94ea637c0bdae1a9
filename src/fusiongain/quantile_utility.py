"""Utility assessment for response-quantile estimation with external covariate data.

The utility is nu + (1 - nu) a, where nu = n / (n + N) encodes how much
external covariate data is contemplated; :func:`core.finalize` applies that
map.  This module computes the nu-free core: the mean's
:func:`~fusiongain.mean_utility.residual_core` on the indicator Z = 1(Y < mu_hat)
at the empirical tau-quantile mu_hat, clamped to [0, 1], over the known
variance tau(1-tau) of Z (the marginal density factor cancels in the ratio).
The half-sample core takes its threshold mu_tilde from the second half, and
its numerator from the first-half rows of a full-sample cross-fit of
1(Y < mu_tilde), fitted in the point stage's pass as a second column of Z.
The paper cross-fits that indicator within the first half instead; the
residual trace is Neyman-orthogonal in the conditional CDF, so reading the
full-sample fit moves a_tilde only at second order, and a quantile
assessment runs one cross-fit instead of two.  The variance plug-in adds a
density-slope term from kernel density estimates of the marginal and
conditional response densities at the quantile.
:func:`assess_quantile` takes tau, the ``regressor`` of the conditional CDF
and the fold ``seed`` as keywords.
"""

from __future__ import annotations

import numpy as np

from .core import UtilityEstimate, finalize, ratio_estimate
from .errors import TooFewObservations, stage
from .nuisance import (
    Dataset,
    cond_kde_profile,
    empirical_quantile,
    kde_eval,
    silverman_bandwidth,
    split_halves,
)
from .mean_utility import residual_core, split_data_stage


def _indicator(y: np.ndarray, thresholds) -> np.ndarray:
    """Z = 1(y < t), one column per threshold t of the sequence ``thresholds``."""
    return (y[:, None] < np.asarray(thresholds)).astype(float)


def compute_quantile_intermediates(
    data: Dataset, tau: float, regressor: str, seed: int
) -> tuple[float, np.ndarray, np.ndarray, float]:
    """The empirical tau-quantile mu_hat, the cross-fitted conditional CDF
    Fhat at mu_hat (clamped to [0, 1]), the squares (1(Y < mu_tilde) - Ftilde)^2
    of the split core, and the point core a_hat: the residual trace of
    1(Y < mu_hat) over tau(1-tau).  mu_tilde is the second half's empirical
    tau-quantile; both indicators are cross-fitted in one pass.  With no Y
    below mu_hat the indicator is 0 in every row and a_hat is 0 by
    construction, so that sample raises :class:`TooFewObservations`; so does
    the mirror case, no Y above mu_hat, where the empirical quantile is the
    sample maximum."""
    mu_hat = empirical_quantile(data.y, tau)
    if not np.any(data.y < mu_hat):
        raise TooFewObservations(f"no observation lies below the empirical {tau}-quantile")
    if not np.any(data.y > mu_hat):
        raise TooFewObservations(f"no observation lies above the empirical {tau}-quantile")
    mu_tilde = empirical_quantile(data.y[split_halves(data.n)[1]], tau)
    fits, sq = residual_core(data.x, _indicator(data.y, (mu_hat, mu_tilde)), regressor, seed,
                             (0.0, 1.0))
    return mu_hat, fits[:, 0], sq[:, 1], ratio_estimate(sq[:, 0], tau * (1.0 - tau))


def split_estimate_quantile(sq_tilde: np.ndarray, tau: float) -> float:
    """Half-sample core a_tilde: quantile from the second half, discrepancies
    from the first.  ``sq_tilde`` holds the squared gaps of 1(Y < mu_tilde)
    from its full-sample cross-fit, at the second half's empirical
    tau-quantile mu_tilde; their mean over the first ceil(n/2) rows, over
    tau(1-tau)."""
    half, _ = split_halves(sq_tilde.size)
    return ratio_estimate(sq_tilde[half], tau * (1.0 - tau))


def variance_quantile(
    data: Dataset, tau: float, mu_hat: float, fhat: np.ndarray
) -> float:
    """Plug-in g^2 = 2 A^2 / {tau(1-tau)} + 2 Var[(1(Y<mu_hat) - Fhat)^2] / {tau(1-tau)}^2,
    with A = 2 * mean[Fhat_i * fhat_{Y|X}(mu_hat | X_i)] / fhat_Y(mu_hat) - 1
    and divisor n - 1.

    All density plug-ins are evaluated at the full-sample empirical quantile;
    bandwidths follow the rule of thumb (per covariate dimension for the
    conditional estimate).  ``mu_hat`` is a sample point, so its own kernel
    term alone gives f_Y(mu_hat) h_y >= 1 / (n sqrt(2 pi)), and the division
    by f_Y(mu_hat) is safe; ``fhat`` holds one prediction per row.
    """
    fhat = np.asarray(fhat, dtype=float)
    var_sq = float(np.var(((data.y < mu_hat) - fhat) ** 2, ddof=1))
    h_y = silverman_bandwidth(data.y)
    f_y = kde_eval(data.y, h_y, mu_hat)
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
        mu_hat, fhat, sq_tilde, a_hat = compute_quantile_intermediates(data, tau, regressor, seed)
    with stage("split"):
        a_tilde = split_estimate_quantile(sq_tilde, tau)
    return finalize(a_hat, a_tilde, lambda: variance_quantile(data, tau, mu_hat, fhat),
                    data.n, nu, alpha, "quantile")
