"""Shared primitives for utility assessment.

The utility of prospective external information is the ratio of two
best-achievable asymptotic variances (traces of efficiency bounds): the bound
when the external information is folded in, over the bound from the internal
sample alone.  The ratio lives in (0, 1]; this module holds the pieces every
assessment method shares: the clamp of estimates into [0, 1], the trace
ratio behind a method's nu-free core, the shared settings check, the
standard normal quantile, Wald intervals, the finalize step that maps
the nu-free core to a result, and the relative-utility transform used for
reporting.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateDenominator,
    DegenerateVariance,
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


def ratio_estimate(theta1_hat: float | np.ndarray, theta2_hat: float | np.ndarray) -> float:
    """Ratio of a nu-free residual trace over the internal-only bound trace:
    the core a of a utility nu + (1 - nu) a.

    Each argument is a trace or the per-row terms whose mean it is.  This is
    the one place a trace is checked: a denominator that is not positive
    raises :class:`DegenerateDenominator`.
    """
    theta1_hat = float(np.mean(theta1_hat))
    theta2_hat = float(np.mean(theta2_hat))
    if not theta2_hat > 0.0:
        raise DegenerateDenominator(
            f"internal-only bound estimate must be positive, got {theta2_hat}"
        )
    return theta1_hat / theta2_hat


def check_settings(nu: float | None = None, alpha: float | None = None) -> None:
    """Validate the settings every assessment shares; ``None`` skips a check.

    An alpha must leave a normal quantile u_{(1+alpha)/2} for the interval,
    so alpha = 1 - 2^-53, where (1 + alpha)/2 rounds to 1, is out of range.
    """
    if nu is not None and not 0.0 <= nu < 1.0:
        raise OutOfRange(f"nu must be in [0, 1), got {nu}")
    if alpha is not None and not (0.0 < alpha and (1.0 + alpha) / 2.0 < 1.0):
        raise OutOfRange(f"alpha must be in (0, 1) with (1 + alpha)/2 < 1, got {alpha}")


# Cephes ndtri (S. L. Moshier, Methods and Programs for Mathematical Functions,
# 1989), the algorithm scipy.special.ndtri runs: a rational function of y^2,
# y = u - 1/2, on (e^-2, 1 - e^-2), and of z = 1/sqrt(-2 log y) on each tail,
# y = min(u, 1 - u).
# A Q table starts with the 1 that Cephes p1evl leaves implicit.
_S2PI = 2.50662827463100050242E0
_EXPM2 = 0.13533528323661269189  # e^-2
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
       1.39312609387279679503E1, -1.23916583867381258016E0)
_Q0 = (1.0, 1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
       -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
       4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4)
_Q1 = (1.0, 1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
       1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
       1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9)
_Q2 = (1.0, 6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
       2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)


def _horner(x: float, coef: tuple[float, ...]) -> float:
    """Cephes polevl: the polynomial with coefficients ``coef``, highest
    power first, by Horner's rule."""
    acc = coef[0]
    for c in coef[1:]:
        acc = acc * x + c
    return acc


def normal_quantile(alpha: float) -> float:
    """Standard normal quantile: Cephes ndtri, bit for bit scipy.special.ndtri."""
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise OutOfRange(f"quantile level must be in (0, 1), got {alpha}")
    y, upper = alpha, alpha > 1.0 - _EXPM2
    if upper:
        y = 1.0 - y
    if y > _EXPM2:
        y -= 0.5
        y2 = y * y
        return (y + y * (y2 * _horner(y2, _P0) / _horner(y2, _Q0))) * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    z = 1.0 / x
    p, q = (_P1, _Q1) if x < 8.0 else (_P2, _Q2)
    x = x - math.log(x) / x - z * _horner(z, p) / _horner(z, q)
    return x if upper else -x


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
        # the interval need not read a_hat, so it is checked here; building
        # the interval checks g_hat, n and its centre
        if not math.isfinite(self.a_hat):
            raise OutOfRange(f"a_hat must be finite, got {self.a_hat}")
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
    of an error, so that simulation loops stay total.  The record is built in
    the ``interval`` stage, so a core no interval fits fails there.
    """
    with stage("variance"):
        try:
            g_hat = math.sqrt(g_sq())
        except DegenerateVariance:
            g_hat = 0.0
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
