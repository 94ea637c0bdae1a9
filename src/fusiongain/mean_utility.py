"""Utility assessment for mean-response estimation with external covariate data.

The utility is nu + (1 - nu) a, where nu = n / (n + N) encodes how much
external covariate data is contemplated; :meth:`core.UtilityEstimate.from_raw`
applies that map.  This module computes the nu-free core: a is the mean
squared residual around a cross-fitted regression g(X) over the mean squared
residual around the mean of Y (the internal-only trace theta2).  Two g targets are
supported: the conditional mean E(Y | X), for external individual covariate
records, and the best linear predictor including an intercept, for an
external covariate average.  The keyword ``regressor`` of :func:`assess_mean`
picks g and so the method: ols-linear is mean-linear, k-nn or local-linear
mean-conditional; ``seed`` draws the cross-fitting folds.  The numerator,
:func:`residual_core`, is shared: :mod:`quantile_utility` runs it on Z = 1(Y < mu),
and each module's point core is the mean of the squares it returns over the
denominator; so is the data stage, :func:`split_data_stage`.  The point core
forms (Y - g)^2 and (Y - ybar)^2 once; the split core and the variance
plug-in reduce those same arrays, the latter with the point core a_hat.
"""

from __future__ import annotations

import numpy as np

from .core import UtilityEstimate, check_settings, plug_in_variance, ratio_estimate
from .errors import TooFewObservations, stage
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


def residual_core(x: np.ndarray, z: np.ndarray, regressor: str, seed: int,
                  clamp: tuple[float, float] = (-np.inf, np.inf)) -> tuple[np.ndarray, np.ndarray]:
    """Cross-fitted regression g of the columns Z of ``z`` on ``x``, clipped
    to ``clamp``, and the squared residuals (Z - g)^2, whose mean is the
    residual trace: Z = Y for the mean, and, clamped to [0, 1], the
    indicators 1(Y < mu_hat) and 1(Y < mu_tilde) for the quantile.  The r
    columns are cross-fitted in one pass; g and the squares have one each."""
    g = np.clip(crossfit_predict(x, z, regressor, seed), *clamp)
    return g, (z - g) ** 2


def compute_mean_intermediates(data: Dataset, regressor: str,
                               seed: int) -> tuple[np.ndarray, np.ndarray, float]:
    """The squared residuals sq_g = (Y - ghat)^2 around the cross-fitted
    predictions ghat, sq_mean = (Y - ybar)^2 around the full-sample mean,
    and the point core a_hat = mean(sq_g) / theta2, theta2 = mean(sq_mean)."""
    sq_g = residual_core(data.x, data.y[:, None], regressor, seed)[1][:, 0]
    sq_mean = (data.y - np.mean(data.y)) ** 2
    return sq_g, sq_mean, ratio_estimate(sq_g, sq_mean)


def split_estimate_mean(sq_g: np.ndarray, sq_mean: np.ndarray) -> float:
    """Half-sample core a_tilde, whose first-order term cannot vanish: the
    point stage's squares ``sq_g`` averaged over the first ceil(n/2) rows,
    over ``sq_mean`` averaged over the rest.  The paper refits g inside the
    first half; the residual trace is Neyman-orthogonal in g, so reading the
    full-sample cross-fit there moves a_tilde only at second order."""
    half, rest = split_halves(sq_g.size)
    return ratio_estimate(sq_g[half], sq_mean[rest])


def variance_mean(sq_g: np.ndarray, sq_mean: np.ndarray, a_hat: float) -> float:
    """Plug-in g^2 = 2{Var[(Y - ghat)^2] + a^2 Var[(Y - ybar)^2]} / theta2^2:
    :func:`~fusiongain.core.plug_in_variance` of the point stage's two
    squared-residual arrays and its core ``a_hat``; two constant arrays give 0."""
    return plug_in_variance(sq_g, sq_mean, a_hat)


def assess_mean(data: Dataset, *, nu: float, alpha: float = 0.95, seed: int = 0,
                regressor: str = "ols-linear") -> UtilityEstimate:
    """Full assessment: :func:`split_data_stage`, the point and half-sample
    cores, then :meth:`UtilityEstimate.from_raw` (the interval is centered at
    the split estimate)."""
    data = split_data_stage(data, nu, alpha, regressor)
    with stage("point"):
        sq_g, sq_mean, a_hat = compute_mean_intermediates(data, regressor, seed)
    with stage("split"):
        a_tilde = split_estimate_mean(sq_g, sq_mean)
    method = "mean-linear" if regressor == "ols-linear" else "mean-conditional"
    return UtilityEstimate.from_raw(a_hat, a_tilde, lambda: variance_mean(sq_g, sq_mean, a_hat),
                                    data.n, nu, alpha, method)
