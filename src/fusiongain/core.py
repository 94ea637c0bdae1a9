"""Shared primitives for utility assessment.

The utility of prospective external information is the ratio of two
best-achievable asymptotic variances (traces of efficiency bounds): the bound
when the external information is folded in, over the bound from the internal
sample alone.  The ratio lives in (0, 1]; this module holds the pieces every
assessment method shares: the clamp of estimates into [0, 1], the trace
ratio behind a method's nu-free core, the shared settings check, standard
normal CDF/quantile evaluation, Wald intervals, the finalize step that maps
the nu-free core to a result, and the relative-utility transform used for
reporting.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import (
    DegenerateDenominator,
    DegenerateVariance,
    OutOfRange,
    VarianceOverflow,
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
    """Ratio of a nu-free residual trace over the internal-only bound trace:
    the core a of a utility nu + (1 - nu) a."""
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
    """One assessment result, stored as its nu-free core.

    ``a_hat`` is the point core, ``a_tilde`` the half-sample core (``None``
    for the regression method, which has no split estimator) and ``g_hat``
    the plug-in standard deviation of the core.  Every reported number is
    derived from them at ``nu``: the raw estimates nu + (1 - nu) a, gamma_hat
    = (1 - nu) g, the Wald interval ``ci_raw`` centered at
    ``theta_tilde_raw`` (at ``theta_hat_raw`` without a split estimate), and
    the companions ``theta_hat`` and ``ci`` clamped into [0, 1].  So
    ``dataclasses.replace(est, nu=v)`` is the estimate at v.
    """

    a_hat: float
    a_tilde: float | None
    g_hat: float
    nu: float
    n: int
    alpha: float
    method: str

    def __post_init__(self):
        check_settings(nu=self.nu, alpha=self.alpha)
        if self.n < 1:
            raise OutOfRange("n must be >= 1")
        finite = (math.isfinite(self.a_hat) and math.isfinite(self.g_hat)
                  and (self.a_tilde is None or math.isfinite(self.a_tilde)))
        if not (finite and self.g_hat >= 0.0):
            raise OutOfRange(f"core must be finite with g_hat >= 0, got a_hat={self.a_hat}, "
                             f"a_tilde={self.a_tilde}, g_hat={self.g_hat}")
        self.ci_raw  # an interval that cannot be built fails here, not on a read

    @classmethod
    def from_raw(cls, a_hat: float, a_tilde: float | None, g_hat: float, nu: float, n: int,
                 alpha: float, method: str) -> "UtilityEstimate":
        """Build an estimate from a method's nu-free core."""
        return cls(float(a_hat), None if a_tilde is None else float(a_tilde), float(g_hat),
                   float(nu), int(n), float(alpha), method)

    @property
    def theta_hat_raw(self) -> float:
        return self.nu + (1.0 - self.nu) * self.a_hat

    @property
    def theta_tilde_raw(self) -> float | None:
        return None if self.a_tilde is None else self.nu + (1.0 - self.nu) * self.a_tilde

    @property
    def gamma_hat(self) -> float:
        return (1.0 - self.nu) * self.g_hat

    @cached_property
    def ci_raw(self) -> Interval:
        center = self.theta_hat_raw if self.a_tilde is None else self.theta_tilde_raw
        return wald_interval(center, self.gamma_hat, self.n, self.alpha)

    @property
    def theta_hat(self) -> float:
        return truncate_point(self.theta_hat_raw)

    @property
    def ci(self) -> Interval:
        return truncate_interval(self.ci_raw)


def finalize(
    a_hat: float,
    a_tilde: float | None,
    g_sq: Callable[[], float],
    n: int,
    nu: float,
    alpha: float,
    method: str,
) -> UtilityEstimate:
    """The estimate at ``nu`` from a method's nu-free core and g = sqrt(``g_sq()``).

    A :class:`DegenerateVariance` gives g = 0 (a zero-width interval) instead
    of an error, so that simulation loops stay total; a variance outside the
    double range is a :class:`VarianceOverflow`.  The record is built in the
    ``interval`` stage, so a core no interval fits fails there.
    """
    with stage("variance"):
        try:
            with np.errstate(over="ignore"):  # an overflow is reported below
                g_sq_value = g_sq()
        except DegenerateVariance:
            g_sq_value = 0.0
        except OverflowError:
            g_sq_value = math.inf
        if not math.isfinite(g_sq_value):
            raise VarianceOverflow(f"plug-in variance is {g_sq_value}: the response "
                                   "scale is too large for its squares")
        g_hat = math.sqrt(g_sq_value)
    with stage("interval"):
        return UtilityEstimate.from_raw(a_hat, a_tilde, g_hat, nu, n, alpha, method)


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
    scale = 1.0 - estimate.nu
    point = (1.0 - estimate.theta_hat) / scale
    ci = Interval((1.0 - estimate.ci.hi) / scale, (1.0 - estimate.ci.lo) / scale)
    return RelativeUtility(point=point, ci=ci)
