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
:func:`residual_core`, is shared: :mod:`quantile_utility` runs it on Z = 1(Y < mu).
"""

from __future__ import annotations

import numpy as np

from .core import UtilityEstimate, check_settings, finalize, ratio_estimate, typed_overflow
from .errors import (
    DegenerateDenominator,
    DegenerateVariance,
    OutOfRange,
    PlanMismatch,
    stage,
)
from .nuisance import REGRESSOR_KINDS, Dataset, crossfit_predict, split_halves


def estimate_bounds_mean(data: Dataset, ghat) -> tuple[float, float]:
    """Plug-in traces from given nuisance predictions: the residual trace
    mean[(y - ghat)^2] and the internal-only trace theta2 = mean[(y - ybar)^2].
    Their ratio is the core a."""
    ghat = np.asarray(ghat, dtype=float)
    if ghat.shape != (data.n,):
        raise PlanMismatch(f"ghat must have length {data.n}, got shape {ghat.shape}")
    theta2 = float(np.mean((data.y - np.mean(data.y)) ** 2))
    if theta2 <= 0.0:
        raise DegenerateDenominator("response is constant; internal-only trace is zero")
    return float(np.mean((data.y - ghat) ** 2)), theta2


def residual_core(z: Dataset, regressor: str, seed: int,
                  clamp: tuple[float, float] = (-np.inf, np.inf)) -> tuple[np.ndarray, float]:
    """Cross-fitted regression g of Z = ``z.y`` on ``z.x``, clipped to ``clamp``,
    and the residual trace mean[(Z - g)^2]: Z = Y for the mean, and the
    indicator 1(Y < mu), clamped to [0, 1], for the quantile."""
    g = np.clip(crossfit_predict(z, regressor, seed), *clamp)
    return g, float(np.mean((z.y - g) ** 2))


def compute_mean_intermediates(data: Dataset, regressor: str, seed: int) -> np.ndarray:
    """Cross-fitted predictions ghat of g on the full sample."""
    return residual_core(data, regressor, seed)[0]


def split_estimate_mean(data: Dataset, regressor: str, seed: int) -> float:
    """Half-sample core a_tilde, whose first-order term cannot vanish.

    The g-residual average uses the first ceil(n/2) observations (with
    cross-fitting inside that half); the mean-residual average uses the rest,
    each normalized by its own count.  The centering mean is the full-sample
    mean.
    """
    half, rest = split_halves(data)
    numerator = residual_core(half, regressor, seed)[1]
    mu_hat = float(np.mean(data.y))
    denominator = float(np.mean((rest.y - mu_hat) ** 2))
    if denominator <= 0.0:
        raise DegenerateDenominator("second-half residuals around the mean are all zero")
    return numerator / denominator


@typed_overflow
def variance_mean(data: Dataset, ghat) -> float:
    """Plug-in g^2 = 2{Var[(Y - ghat)^2] + a^2 Var[(Y - ybar)^2]} / theta2^2,
    with sample variances using divisor n - 1."""
    residual_trace, theta2 = estimate_bounds_mean(data, ghat)
    var_g = float(np.var((data.y - ghat) ** 2, ddof=1))
    var_mean = float(np.var((data.y - np.mean(data.y)) ** 2, ddof=1))
    if var_g == 0.0 and var_mean == 0.0:
        raise DegenerateVariance("both residual-square sequences are constant")
    a_hat = residual_trace / theta2
    return 2.0 * (var_g + a_hat**2 * var_mean) / theta2**2


def assess_mean(data: Dataset, *, nu: float, alpha: float = 0.95, seed: int = 0,
                regressor: str = "ols-linear") -> UtilityEstimate:
    """Full assessment: the point and half-sample cores, then :func:`finalize`
    (the interval is centered at the split estimate)."""
    check_settings(nu, alpha)
    if regressor not in REGRESSOR_KINDS:
        raise OutOfRange(f"regressor must be one of {REGRESSOR_KINDS}")
    with stage("point"):
        ghat = compute_mean_intermediates(data, regressor, seed)
        a_hat = ratio_estimate(*estimate_bounds_mean(data, ghat))
    with stage("split"):
        a_tilde = split_estimate_mean(data, regressor, seed)
    method = "mean-linear" if regressor == "ols-linear" else "mean-conditional"
    return finalize(a_hat, a_tilde, lambda: variance_mean(data, ghat),
                    data.n, nu, alpha, method)
