"""Shared primitives for utility assessment.

The utility of prospective external information is the ratio of two
best-achievable asymptotic variances (traces of efficiency bounds): the bound
when the external information is folded in, over the bound from the internal
sample alone.  The ratio lives in (0, 1]; this module holds the pieces every
assessment method shares: the clamp of estimates into [0, 1], the ratio of
the two bound traces, the shared settings check, standard normal
CDF/quantile evaluation, Wald intervals, the finalize step that turns raw
estimates and a variance plug-in into a result, and the relative-utility
transform used for reporting.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

from scipy.special import ndtr, ndtri

from .errors import (
    DegenerateDenominator,
    DegenerateVariance,
    MissingInterval,
    OutOfRange,
    stage,
)


@dataclass(frozen=True)
class Interval:
    """Closed interval with finite, ordered endpoints."""

    lo: float
    hi: float

    def __post_init__(self):
        lo = float(self.lo)
        hi = float(self.hi)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise OutOfRange("interval endpoints must be finite")
        if lo > hi:
            raise OutOfRange(f"interval endpoints out of order: [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi


def truncate_point(x: float) -> float:
    """Clamp a point estimate into the parameter space [0, 1]."""
    x = float(x)
    if x >= 1.0:
        return 1.0
    if x <= 0.0:
        return 0.0
    return x


def truncate_interval(interval: Interval) -> Interval:
    """Clamp both interval endpoints into [0, 1] (endpointwise, order kept)."""
    return Interval(truncate_point(interval.lo), truncate_point(interval.hi))


def ratio_estimate(theta1_hat: float, theta2_hat: float) -> float:
    """Ratio of the with-fusion over the internal-only bound trace; the raw
    (untruncated) utility estimate."""
    theta1_hat = float(theta1_hat)
    theta2_hat = float(theta2_hat)
    if not (math.isfinite(theta1_hat) and math.isfinite(theta2_hat)):
        raise OutOfRange("bound estimates must be finite")
    if not theta2_hat > 0.0:
        raise DegenerateDenominator(
            f"internal-only bound estimate must be positive, got {theta2_hat}"
        )
    return theta1_hat / theta2_hat


def check_settings(nu: float | None = None, alpha: float | None = None,
                   n_folds: int | None = None) -> None:
    """Validate the settings every assessment shares; ``None`` skips a check."""
    if nu is not None and not 0.0 <= nu < 1.0:
        raise OutOfRange(f"nu must be in [0, 1), got {nu}")
    if n_folds is not None and n_folds < 2:
        raise OutOfRange("n_folds must be >= 2")
    if alpha is not None and not 0.0 < alpha < 1.0:
        raise OutOfRange(f"alpha must be in (0, 1), got {alpha}")


def normal_cdf(x):
    """Standard normal distribution function (vectorized)."""
    return ndtr(x)


def normal_quantile(alpha: float) -> float:
    """Standard normal quantile, accurate to well below 1e-10."""
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise OutOfRange(f"quantile level must be in (0, 1), got {alpha}")
    return float(ndtri(alpha))


def wald_interval(center: float, gamma_hat: float, n: int, alpha: float) -> Interval:
    """Two-sided interval center +- gamma_hat * u_{(1+alpha)/2} / sqrt(n).

    gamma_hat = 0 is allowed and yields a zero-width interval; degenerate
    variance estimates are the caller's policy decision, not an error here.
    """
    if gamma_hat < 0 or not math.isfinite(gamma_hat):
        raise OutOfRange(f"gamma_hat must be nonnegative, got {gamma_hat}")
    if n < 1:
        raise OutOfRange(f"sample size must be >= 1, got {n}")
    if not 0.0 < alpha < 1.0:
        raise OutOfRange(f"confidence level must be in (0, 1), got {alpha}")
    half = gamma_hat * normal_quantile((1.0 + alpha) / 2.0) / math.sqrt(n)
    return Interval(center - half, center + half)


@dataclass(frozen=True)
class UtilityEstimate:
    """One assessment result.

    Raw values are the untruncated estimates the asymptotic theory is about;
    the truncated companions are the reported values clamped into [0, 1].
    ``ci_raw`` is centered at the split estimate ``theta_tilde_raw`` for the
    mean and quantile methods and at ``theta_hat_raw`` for the regression
    method (which has no split estimator, hence ``theta_tilde_raw is None``).
    """

    theta_hat_raw: float
    theta_hat: float
    theta_tilde_raw: float | None
    gamma_hat: float
    ci_raw: Interval | None
    ci: Interval | None
    nu: float
    n: int
    alpha: float
    method: str

    def __post_init__(self):
        check_settings(nu=self.nu, alpha=self.alpha)
        if self.n < 1:
            raise OutOfRange("n must be >= 1")
        if self.theta_hat != truncate_point(self.theta_hat_raw):
            raise OutOfRange("theta_hat must be the truncation of theta_hat_raw")
        if (self.ci is None) != (self.ci_raw is None):
            raise MissingInterval("ci and ci_raw must be present together")
        if self.ci_raw is not None and self.ci != truncate_interval(self.ci_raw):
            raise OutOfRange("ci must be the truncation of ci_raw")
        if self.gamma_hat < 0:
            raise OutOfRange("gamma_hat must be nonnegative")

    @classmethod
    def from_raw(
        cls,
        theta_hat_raw: float,
        theta_tilde_raw: float | None,
        gamma_hat: float,
        ci_raw: Interval | None,
        nu: float,
        n: int,
        alpha: float,
        method: str,
    ) -> "UtilityEstimate":
        """Build an estimate, deriving the truncated companions."""
        return cls(
            theta_hat_raw=float(theta_hat_raw),
            theta_hat=truncate_point(theta_hat_raw),
            theta_tilde_raw=None if theta_tilde_raw is None else float(theta_tilde_raw),
            gamma_hat=float(gamma_hat),
            ci_raw=ci_raw,
            ci=None if ci_raw is None else truncate_interval(ci_raw),
            nu=float(nu),
            n=int(n),
            alpha=float(alpha),
            method=method,
        )


def finalize(
    theta_hat_raw: float,
    theta_tilde_raw: float | None,
    variance: Callable[[], float],
    n: int,
    nu: float,
    alpha: float,
    method: str,
) -> UtilityEstimate:
    """The method-independent tail of every assessment.

    gamma_hat is the square root of ``variance()``, the plug-in asymptotic
    variance; a :class:`DegenerateVariance` gives gamma_hat = 0 (a zero-width
    interval) instead of an error, so that simulation loops stay total.  The
    Wald interval is centered at ``theta_tilde_raw``, or at ``theta_hat_raw``
    for a method without a split estimate.
    """
    with stage("variance"):
        try:
            gamma_hat = math.sqrt(variance())
        except DegenerateVariance:
            gamma_hat = 0.0
    with stage("interval"):
        center = theta_hat_raw if theta_tilde_raw is None else theta_tilde_raw
        ci_raw = wald_interval(center, gamma_hat, n, alpha)
    return UtilityEstimate.from_raw(
        theta_hat_raw=theta_hat_raw,
        theta_tilde_raw=theta_tilde_raw,
        gamma_hat=gamma_hat,
        ci_raw=ci_raw,
        nu=nu,
        n=n,
        alpha=alpha,
        method=method,
    )


@dataclass(frozen=True)
class RelativeUtility:
    """Utility relative to acquiring equally many direct response observations."""

    point: float
    ci: Interval


def relative_utility(estimate: UtilityEstimate) -> RelativeUtility:
    """Map (theta, CI) to the relative scale (1 - theta) / (1 - nu).

    Uses the truncated point estimate and interval, which is what gets
    reported; endpoints swap because the map is decreasing.
    """
    if estimate.ci is None:
        raise MissingInterval("relative utility needs a confidence interval")
    scale = 1.0 - estimate.nu
    point = (1.0 - estimate.theta_hat) / scale
    ci = Interval((1.0 - estimate.ci.hi) / scale, (1.0 - estimate.ci.lo) / scale)
    return RelativeUtility(point=point, ci=ci)
