"""fusiongain: assess the potential efficiency gain of prospective external data.

Given only an internal i.i.d. sample, estimate the ratio of the
best-achievable asymptotic variances for a target parameter with versus
without contemplated external information, with point estimates, half-sample
estimates and asymptotically valid confidence intervals for three targets:
the mean response, a response quantile, and linear-regression coefficients.

``__all__`` is the library surface; every other name stays in its module.
"""

from .core import Interval, RelativeUtility, UtilityEstimate, relative_utility
from .errors import FusionGainError
from .linreg_utility import assess_linreg
from .mean_utility import assess_mean
from .nuisance import Dataset
from .quantile_utility import assess_quantile
from .simulation import (
    METHODS,
    DgpConfig,
    MonteCarloCell,
    generate_dgp,
    run_monte_carlo,
    true_theta_linreg,
    true_theta_mean,
    true_theta_quantile,
)

__version__ = "0.1.0"

__all__ = [
    "assess_mean", "assess_quantile", "assess_linreg",
    "Dataset", "UtilityEstimate", "Interval", "relative_utility", "RelativeUtility",
    "METHODS", "DgpConfig", "generate_dgp", "MonteCarloCell", "run_monte_carlo",
    "true_theta_mean", "true_theta_quantile", "true_theta_linreg",
    "FusionGainError",
]
