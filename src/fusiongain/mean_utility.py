"""Utility assessment for mean-response estimation with external covariate data.

The utility is nu + (1 - nu) a, where nu = n / (n + N) encodes how much
external covariate data is contemplated; :func:`core.finalize` applies that
map.  This module computes the nu-free core: a is the mean squared residual
around a cross-fitted regression g(X) over the mean squared residual around
the mean of Y (the internal-only trace theta2).  Two g targets are
supported: the conditional mean E(Y | X), for external individual covariate
records, and the best linear predictor including an intercept, for an
external covariate average.  The keyword ``regressor`` of :func:`assess_mean`
picks g and so the method: ols-linear is mean-linear, k-nn or local-linear
mean-conditional; ``seed`` draws the cross-fitting folds.  The numerator,
:func:`residual_core`, is shared: :mod:`quantile_utility` runs it on Z = 1(Y < mu),
and each module's point core is the mean of the squares it returns over the
denominator; so is the data stage, :func:`split_data_stage`.  The point core
forms (Y - g)^2 and (Y - ybar)^2 once; the split core and the variance
plug-in reduce those same arrays.
"""

from __future__ import annotations

import numpy as np

from .core import UtilityEstimate, check_settings, finalize, ratio_estimate
from .errors import DegenerateVariance, TooFewObservations, stage
from .nuisance import MIN_SPLIT_N, Dataset, crossfit_predict, split_halves, unit_scaled


def split_data_stage(data: Dataset, nu: float, alpha: float, regressor: str) -> Dataset:
    """What the mean and the quantile do first: check the settings, then, in
    stage ``data``, refuse fewer than ``MIN_SPLIT_N`` rows and pass the rest
    through the door :func:`unit_scaled`, with one covariate scale for k-NN,
    which ranks neighbours in raw units."""
    check_settings(nu, alpha)
    with stage("data"):
        if data.n < MIN_SPLIT_N:
            raise TooFewObservations(
                f"the half-sample split needs n >= {MIN_SPLIT_N}, got n={data.n}")
        return unit_scaled(data, common_x=regressor == "k-nn")


def residual_core(z: Dataset, regressor: str, seed: int,
                  clamp: tuple[float, float] = (-np.inf, np.inf)) -> tuple[np.ndarray, np.ndarray]:
    """Cross-fitted regression g of Z = ``z.y`` on ``z.x``, clipped to ``clamp``,
    and the squared residuals (Z - g)^2, whose mean is the residual trace:
    Z = Y for the mean, and the indicator 1(Y < mu), clamped to [0, 1], for
    the quantile."""
    g = np.clip(crossfit_predict(z, regressor, seed), *clamp)
    return g, (z.y - g) ** 2


def compute_mean_intermediates(data: Dataset, regressor: str,
                               seed: int) -> tuple[np.ndarray, np.ndarray, float]:
    """The squared residuals sq_g = (Y - ghat)^2 around the cross-fitted
    predictions ghat, sq_mean = (Y - ybar)^2 around the full-sample mean,
    and the point core a_hat = mean(sq_g) / theta2, theta2 = mean(sq_mean)."""
    sq_g = residual_core(data, regressor, seed)[1]
    sq_mean = (data.y - np.mean(data.y)) ** 2
    return sq_g, sq_mean, ratio_estimate(sq_g, sq_mean)


def split_estimate_mean(data: Dataset, sq_mean: np.ndarray, regressor: str, seed: int) -> float:
    """Half-sample core a_tilde, whose first-order term cannot vanish.

    The g-residual average uses the first ceil(n/2) observations (with
    cross-fitting inside that half); the mean-residual average is the mean
    of ``sq_mean``, the squares around the full-sample mean, over the rest.
    """
    half, rest = split_halves(data.n)
    return ratio_estimate(residual_core(data.take(half), regressor, seed)[1], sq_mean[rest])


def variance_mean(sq_g: np.ndarray, sq_mean: np.ndarray) -> float:
    """Plug-in g^2 = 2{Var[(Y - ghat)^2] + a^2 Var[(Y - ybar)^2]} / theta2^2
    from the two squared-residual arrays, with sample variances using
    divisor n - 1."""
    a_hat = ratio_estimate(sq_g, sq_mean)
    theta2 = float(np.mean(sq_mean))
    var_g = float(np.var(sq_g, ddof=1))
    var_mean = float(np.var(sq_mean, ddof=1))
    if var_g == 0.0 and var_mean == 0.0:
        raise DegenerateVariance("both residual-square sequences are constant")
    return 2.0 * (var_g + a_hat**2 * var_mean) / theta2**2


def assess_mean(data: Dataset, *, nu: float, alpha: float = 0.95, seed: int = 0,
                regressor: str = "ols-linear") -> UtilityEstimate:
    """Full assessment: :func:`split_data_stage`, the point and half-sample
    cores, then :func:`finalize` (the interval is centered at the split
    estimate)."""
    data = split_data_stage(data, nu, alpha, regressor)
    with stage("point"):
        sq_g, sq_mean, a_hat = compute_mean_intermediates(data, regressor, seed)
    with stage("split"):
        a_tilde = split_estimate_mean(data, sq_mean, regressor, seed)
    method = "mean-linear" if regressor == "ols-linear" else "mean-conditional"
    return finalize(a_hat, a_tilde, lambda: variance_mean(sq_g, sq_mean),
                    data.n, nu, alpha, method)
