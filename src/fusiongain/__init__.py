"""fusiongain: assess the potential efficiency gain of prospective external data.

Given only an internal i.i.d. sample, estimate the ratio of the
best-achievable asymptotic variances for a target parameter with versus
without contemplated external information, with point estimates, half-sample
estimates and asymptotically valid confidence intervals for three targets:
the mean response, a response quantile, and linear-regression coefficients.
"""

from .core import (
    Interval,
    RelativeUtility,
    UtilityEstimate,
    check_settings,
    finalize,
    normal_cdf,
    normal_quantile,
    ratio_estimate,
    relative_utility,
    truncate_interval,
    truncate_point,
    wald_interval,
)
from .errors import FusionGainError
from .linreg_utility import (
    LinRegComponents,
    assess_linreg,
    fit_components,
    variance_linreg,
)
from .mean_utility import (
    assess_mean,
    estimate_bounds_mean,
    split_estimate_mean,
    variance_mean,
)
from .nuisance import (
    Dataset,
    KernelDensity,
    SplitPlan,
    crossfit_predict,
    empirical_quantile,
    fit_conditional_mean,
    kde_eval,
    make_split_plan,
    ols_fit,
    silverman_bandwidth,
)
from .quantile_utility import (
    assess_quantile,
    split_estimate_quantile,
    variance_quantile,
)
from .simulation import (
    METHODS,
    CellResult,
    DgpConfig,
    Method,
    MonteCarloCell,
    SimulationReport,
    generate_dgp,
    run_monte_carlo,
    true_theta_linreg,
    true_theta_mean,
    true_theta_quantile,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
