"""Independent brute-force reference implementations used as test oracles.

Everything here is a direct, loop-based transcription of the estimator
formulas, written without importing the package under test.  Fold assignments
are taken as data (they are an input convention, not an estimator), so any
agreement between these functions and the package is agreement of the
estimator arithmetic itself.  Slow on purpose; only run at small-to-moderate
sample sizes.
"""

import math

import numpy as np

SQRT_2PI = math.sqrt(2.0 * math.pi)
COND_LIMIT = 1e12


def ref_silverman(sample):
    sample = np.asarray(sample, dtype=float)
    sd = float(np.std(sample, ddof=1))
    q75, q25 = np.percentile(sample, [75.0, 25.0])
    iqr = float(q75 - q25)
    spread = min(sd, iqr / 1.34) if iqr > 0 else sd
    return 1.06 * spread * sample.size ** (-0.2)


def ref_fisher_yates(gen, n):
    """Fisher-Yates permutation of 0..n-1 in the documented draw order: all swap
    targets in one call (position i in n-1, ..., 1 gets a uniform index on
    [0, i]), then the swaps from the top position down."""
    perm = np.arange(n)
    if n <= 1:
        return perm
    targets = gen.integers(0, np.arange(n, 1, -1))
    for k in range(n - 1):
        i = n - 1 - k
        j = int(targets[k])
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def ref_ols_predict(x_train, y_train, x_test):
    d_train = np.hstack([np.ones((len(y_train), 1)), x_train])
    beta = np.linalg.solve(d_train.T @ d_train, d_train.T @ y_train)
    d_test = np.hstack([np.ones((len(x_test), 1)), x_test])
    return d_test @ beta


MIN_EFFECTIVE_WEIGHT = 20.0
MAX_INFLATIONS = 16


def ref_kernel_block(x_train, bandwidths, x_test):
    """Product-Gaussian kernel weights of a block of queries, (queries x training).

    Written in the same expanded bilinear form, step for step, as the package's
    kernel smoothers, so that a floor computed from these rows can be compared
    bit for bit.  The BLAS product's last bits can depend on how many queries
    it is given, so the form is always evaluated on the whole block.  Both
    sides are centred at the training column means first.
    """
    centre = x_train.mean(axis=0)
    a = (x_test - centre) / bandwidths
    b = (x_train - centre) / bandwidths
    cross = a @ b.T
    cross *= 2.0
    d2 = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :]
    d2 -= cross
    np.maximum(d2, 0.0, out=d2)
    d2 *= -0.5
    return np.exp(d2, out=d2)


def ref_floored_weights(x_train, bandwidths, x_test):
    """Sparse-region floor as a plain loop: each query takes its whole kernel
    row at bandwidths h * 2^k, recomputed for k = 0, 1, ... until the row sum
    reaches MIN_EFFECTIVE_WEIGHT or k reaches MAX_INFLATIONS (no floor for
    training samples of MIN_EFFECTIVE_WEIGHT rows or fewer)."""
    levels = {}

    def row(q, k):
        if k not in levels:
            levels[k] = ref_kernel_block(x_train, bandwidths * 2.0**k, x_test)
        return levels[k][q]

    w = np.empty((len(x_test), len(x_train)))
    for q in range(len(x_test)):
        k = 0
        w[q] = row(q, 0)
        while (len(x_train) > MIN_EFFECTIVE_WEIGHT and k < MAX_INFLATIONS
               and w[q].sum() < MIN_EFFECTIVE_WEIGHT):
            k += 1
            w[q] = row(q, k)
    return w


def ref_local_linear_predict(x_train, y_train, x_test, bandwidths=None):
    return ref_local_linear_fit(x_train, y_train, x_test, bandwidths)[0]


def ref_local_linear_fit(x_train, y_train, x_test, bandwidths=None):
    """Local-linear predictions, and per query whether the local solve passed
    the condition gate (False: kernel-weighted mean fallback)."""
    if bandwidths is None:
        bandwidths = np.array(
            [ref_silverman(x_train[:, j]) for j in range(x_train.shape[1])]
        )
    preds = np.empty(len(x_test))
    solved = np.empty(len(x_test), dtype=bool)
    for q in range(len(x_test)):
        u = (x_test[q] - x_train) / bandwidths
        w = np.exp(-0.5 * np.sum(u * u, axis=1))
        # sparse-region rule: double the bandwidths until the total kernel
        # weight reaches the floor (skipped for tiny training samples)
        if len(x_train) > MIN_EFFECTIVE_WEIGHT:
            factor = 1.0
            for _ in range(MAX_INFLATIONS):
                if w.sum() >= MIN_EFFECTIVE_WEIGHT:
                    break
                factor *= 2.0
                u = (x_test[q] - x_train) / (bandwidths * factor)
                w = np.exp(-0.5 * np.sum(u * u, axis=1))
        centered = x_train - x_test[q]
        design = np.hstack([np.ones((len(x_train), 1)), centered])
        gram = design.T @ (w[:, None] * design)
        rhs = design.T @ (w * y_train)
        cond = np.linalg.cond(gram)
        solved[q] = np.isfinite(cond) and cond <= COND_LIMIT
        if not solved[q]:
            sw = w.sum()
            preds[q] = (w @ y_train) / sw if sw > 0 else y_train.mean()
        else:
            preds[q] = np.linalg.solve(gram, rhs)[0]
    return preds, solved


def ref_knn_predict(x_train, y_train, x_test, k=None):
    """Mean response of the k nearest training points; a query's neighbours
    are the first k after sorting (squared distance, training index) pairs."""
    if k is None:
        k = min(max(1, math.ceil(len(x_train) ** 0.8 / 4.0)), len(x_train))
    preds = np.empty(len(x_test))
    for q in range(len(x_test)):
        ranked = sorted(
            (float(np.sum((x_test[q] - x_train[i]) ** 2)), i) for i in range(len(x_train))
        )
        preds[q] = np.mean([y_train[i] for _, i in ranked[:k]])
    return preds


def ref_crossfit(x, response, assignment, predictor):
    out = np.empty(len(response))
    for m in np.unique(assignment):
        test = assignment == m
        train = ~test
        out[test] = predictor(x[train], response[train], x[test])
    return out


def _predictor(mode):
    return {"linear": ref_ols_predict, "local-linear": ref_local_linear_predict,
            "k-nn": ref_knn_predict}[mode]


def ref_empirical_quantile(y, tau):
    k = math.ceil(len(y) * tau)
    return float(np.sort(np.asarray(y, dtype=float))[k - 1])


# mean-response target ---------------------------------------------------------


def ref_mean_point(y, x, nu, assignment, mode):
    ghat = ref_crossfit(x, y, assignment, _predictor(mode))
    mu = y.mean()
    theta1 = np.mean((1 - nu) * (y - ghat) ** 2 + nu * (y - mu) ** 2)
    theta2 = np.mean((y - mu) ** 2)
    return theta1 / theta2, ghat


def ref_mean_split(y, x, nu, half_assignment, mode):
    n_half = math.ceil(len(y) / 2)
    ghat = ref_crossfit(x[:n_half], y[:n_half], half_assignment, _predictor(mode))
    mu = y.mean()
    num = np.mean((y[:n_half] - ghat) ** 2)
    den = np.mean((y[n_half:] - mu) ** 2)
    return (1 - nu) * num / den + nu


def ref_mean_gamma_sq(y, x, nu, assignment, mode):
    ghat = ref_crossfit(x, y, assignment, _predictor(mode))
    mu = y.mean()
    theta1 = np.mean((1 - nu) * (y - ghat) ** 2 + nu * (y - mu) ** 2)
    theta2 = np.mean((y - mu) ** 2)
    term1 = 2 * (1 - nu) ** 2 * np.var((y - ghat) ** 2, ddof=1) / theta2**2
    term2 = (
        2 * (theta1 - nu * theta2) ** 2 * np.var((y - mu) ** 2, ddof=1) / theta2**4
    )
    return term1 + term2


# response-quantile target -----------------------------------------------------


def ref_quantile_point(y, x, nu, tau, assignment):
    mu = ref_empirical_quantile(y, tau)
    indicators = (y < mu).astype(float)
    fhat = np.clip(
        ref_crossfit(x, indicators, assignment, ref_local_linear_predict), 0.0, 1.0
    )
    theta1 = (1 - nu) * np.mean((indicators - fhat) ** 2) + nu * tau * (1 - tau)
    return theta1 / (tau * (1 - tau)), mu, fhat


def ref_quantile_split(y, x, nu, tau, half_assignment):
    n_half = math.ceil(len(y) / 2)
    mu_tilde = ref_empirical_quantile(y[n_half:], tau)
    indicators = (y[:n_half] < mu_tilde).astype(float)
    fhat = np.clip(
        ref_crossfit(x[:n_half], indicators, half_assignment, ref_local_linear_predict),
        0.0,
        1.0,
    )
    return (1 - nu) * np.mean((indicators - fhat) ** 2) / (tau * (1 - tau)) + nu


def ref_quantile_gamma_sq(y, x, nu, tau, assignment):
    _, mu, fhat = ref_quantile_point(y, x, nu, tau, assignment)
    h_y = ref_silverman(y)
    f_y = np.mean(np.exp(-0.5 * ((mu - y) / h_y) ** 2)) / (h_y * SQRT_2PI)
    h_x = np.array([ref_silverman(x[:, j]) for j in range(x.shape[1])])
    f_cond = np.empty(len(y))
    for i in range(len(y)):
        u = (x[i] - x) / h_x
        w = np.exp(-0.5 * np.sum(u * u, axis=1))
        w = w / w.sum()
        f_cond[i] = w @ (np.exp(-0.5 * ((mu - y) / h_y) ** 2) / (h_y * SQRT_2PI))
    slope = 2 * np.mean(fhat * f_cond) / f_y - 1
    indicators = (y < mu).astype(float)
    term1 = 2 * (1 - nu) ** 2 * slope**2 / (tau * (1 - tau))
    term2 = (
        2
        * (1 - nu) ** 2
        * np.var((indicators - fhat) ** 2, ddof=1)
        / (tau * (1 - tau)) ** 2
    )
    return term1 + term2


# linear-regression target -----------------------------------------------------


def ref_linreg_components(y, x, s_index):
    n = len(y)
    sigma_mat = x.T @ x / n
    mu = np.linalg.solve(x.T @ x, x.T @ y)
    s = x[:, s_index]
    eta = float(s @ y) / float(s @ s)
    kappa = float(np.trace(np.linalg.inv(sigma_mat)))
    sigma = math.sqrt(float(np.mean((y - x @ mu) ** 2)))
    alpha = float(np.mean(s**2 * (y - eta * s) ** 2))
    return {
        "mu": mu,
        "eta": eta,
        "sigma_mat": sigma_mat,
        "kappa": kappa,
        "sigma": sigma,
        "alpha": alpha,
    }


def ref_linreg_point(y, x, s_index, nu):
    c = ref_linreg_components(y, x, s_index)
    return 1 - (1 - nu) * c["sigma"] ** 2 / (c["alpha"] * c["kappa"])


def ref_linreg_gamma_sq(y, x, s_index, nu):
    c = ref_linreg_components(y, x, s_index)
    sigma_inv = np.linalg.inv(c["sigma_mat"])
    s = x[:, s_index]
    e3 = np.mean(s**3 * (y - c["eta"] * s))
    es2 = np.mean(s**2)
    composite = np.empty(len(y))
    for i in range(len(y)):
        resid = y[i] - c["mu"] @ x[i]
        trace_term = np.trace(sigma_inv @ np.outer(x[i], x[i]) @ sigma_inv)
        s_term = s[i] ** 2 * (y[i] - c["eta"] * s[i]) ** 2 - 2 * e3 * s[i] * (
            y[i] - c["eta"] * s[i]
        ) / es2
        composite[i] = (
            resid**2
            + (c["sigma"] ** 2 / c["kappa"]) * trace_term
            - (c["sigma"] ** 2 / c["alpha"]) * s_term
        )
    prefactor = ((1 - nu) / (c["alpha"] * c["kappa"])) ** 2
    return prefactor * np.var(composite, ddof=1)
