"""Nuisance-function estimation stack.

Cross-fitting partitions, the regressor menu (pooled least squares, k-nearest
neighbors, local linear smoothing), conditional-CDF regression on indicator
responses, Gaussian kernel density estimation with rule-of-thumb bandwidths,
and empirical quantiles.  Everything here is deterministic given its inputs;
the only randomness is the seeded fold assignment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import (
    BadFoldCount,
    EmptyNeighborhood,
    OutOfRange,
    PlanMismatch,
    SingularDesign,
    TooFewObservations,
    ZeroDispersion,
)

# Gram matrices at or beyond this condition number are treated as singular.
MAX_CONDITION_NUMBER = 1e12

# Queries per block in the kernel smoothers; bounds the (queries x training)
# temporaries at a few megabytes.
CHUNK = 512

_SQRT_2PI = math.sqrt(2.0 * math.pi)

REGRESSOR_KINDS = ("ols-linear", "k-nn", "local-linear")


@dataclass(frozen=True)
class Dataset:
    """Internal sample: response vector ``y`` and covariate matrix ``x``."""

    y: np.ndarray
    x: np.ndarray
    column_names: tuple[str, ...] | None = None

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        x = np.asarray(self.x, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        if y.ndim != 1 or x.ndim != 2:
            raise OutOfRange("y must be a vector and x a matrix")
        if y.shape[0] != x.shape[0]:
            raise OutOfRange(
                f"response length {y.shape[0]} != covariate rows {x.shape[0]}"
            )
        if y.shape[0] < 1 or x.shape[1] < 1:
            raise OutOfRange("dataset needs at least one row and one covariate")
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(x))):
            raise OutOfRange("dataset entries must be finite")
        y.setflags(write=False)
        x.setflags(write=False)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)
        if self.column_names is not None:
            names = tuple(self.column_names)
            if len(names) != x.shape[1]:
                raise OutOfRange("column_names length must match covariate count")
            object.__setattr__(self, "column_names", names)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    def take(self, indices) -> "Dataset":
        return Dataset(self.y[indices], self.x[indices], self.column_names)


@dataclass(frozen=True)
class SplitPlan:
    """Deterministic M-fold partition of 0..n-1, reconstructible from the seed."""

    n: int
    n_folds: int
    assignment: np.ndarray  # fold id per observation, 0-based
    seed: int

    def fold(self, m: int) -> np.ndarray:
        return np.flatnonzero(self.assignment == m)

    def complement(self, m: int) -> np.ndarray:
        return np.flatnonzero(self.assignment != m)


def make_split_plan(n: int, n_folds: int, seed: int) -> SplitPlan:
    """Partition 0..n-1 into ``n_folds`` folds of near-equal size.

    A seeded Fisher-Yates shuffle is cut into contiguous blocks; the first
    ``n mod n_folds`` folds are one observation larger.  Identical
    (n, n_folds, seed) always reproduces the identical plan.
    """
    if n_folds < 2:
        raise BadFoldCount(f"need at least 2 folds, got {n_folds}")
    if n < 2 * n_folds:
        raise TooFewObservations(
            f"need n >= 2 * n_folds for usable folds, got n={n}, n_folds={n_folds}"
        )
    gen = rng.substream(seed, rng.DOMAIN_SPLIT)
    order = rng.fisher_yates(gen, n)
    base, rem = divmod(n, n_folds)
    assignment = np.empty(n, dtype=np.int64)
    start = 0
    for fold_id in range(n_folds):
        size = base + (1 if fold_id < rem else 0)
        assignment[order[start : start + size]] = fold_id
        start += size
    return SplitPlan(n=n, n_folds=n_folds, assignment=assignment, seed=seed)


def ols_fit(x, y, intercept: bool = True) -> np.ndarray:
    """Least-squares coefficients via the normal equations.

    With ``intercept`` the returned vector has the intercept first, then one
    slope per covariate column.  The Gram matrix must be well conditioned
    (condition number below ``MAX_CONDITION_NUMBER``).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    y = np.asarray(y, dtype=float)
    design = np.column_stack([np.ones(x.shape[0]), x]) if intercept else x
    gram = design.T @ design
    cond = float(spd_condition_number(gram))
    if not cond <= MAX_CONDITION_NUMBER:
        raise SingularDesign(f"Gram matrix condition number {cond:.3e} too large")
    return np.linalg.solve(gram, design.T @ y)


def spd_condition_number(gram: np.ndarray) -> np.ndarray:
    """2-norm condition number of symmetric positive semidefinite matrices.

    ``gram`` is one matrix or a stack of them; only the lower triangle is
    read.  The condition number is the ratio of the largest to the smallest
    eigenvalue, and infinite where the smallest is not positive.  Compare it
    with ``MAX_CONDITION_NUMBER`` to decide whether a solve is trusted.
    """
    eig = np.linalg.eigvalsh(gram)
    lo, hi = eig[..., 0], eig[..., -1]
    positive = lo > 0.0
    return np.where(positive, hi / np.where(positive, lo, 1.0), np.inf)


def default_neighbor_count(n_train: int) -> int:
    """Default k for k-NN regression, ceil(n^(4/5) / 4), clipped to [1, n]."""
    return min(max(1, math.ceil(n_train**0.8 / 4.0)), n_train)


class OlsLinearRegressor:
    def __init__(self, coef: np.ndarray):
        self.coef = np.asarray(coef, dtype=float)

    def predict(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        design = np.column_stack([np.ones(x.shape[0]), x])
        return design @ self.coef


class KnnRegressor:
    """k-nearest-neighbour regressor: the mean response of the ``k`` training
    points nearest to each query in Euclidean distance.

    Neighbours are ranked by the exact squared distance sum_d (x_d - X_td)^2,
    and ties go to the lowest training index.  Queries run in blocks of
    ``CHUNK``.  Within a block, candidates are picked by partial selection
    (``np.partition``) on bilinear-form distances |q|^2 + |t|^2 - 2 q.t about
    the training mean, one GEMM per block: every training point up to the
    k-th smallest such distance plus a small relative slack that covers
    their rounding error.  Only the candidates, in ascending index order, are
    ranked by exact squared distance with a stable sort.  Neighbour sets,
    their order and the predictions are therefore the same, bit for bit, as
    a stable argsort of all exact distances, in O(queries x training) memory.
    """

    # Candidate slack, relative to |q|^2 + max |t|^2 about the training mean.
    # The bilinear form and the exact sum are each off by a few (p + 4) ulps
    # of that scale, so this covers both for any practical p while admitting
    # almost no extra candidates.
    _SLACK = 1e-9

    def __init__(self, x_train: np.ndarray, y_train: np.ndarray, k: int):
        self.x_train = x_train
        self.y_train = y_train
        self.k = k
        self._x_mean = x_train.mean(axis=0)
        self._x_centered = x_train - self._x_mean
        self._sq_norms = (self._x_centered * self._x_centered).sum(axis=1)
        self._max_sq_norm = float(self._sq_norms.max())

    def predict(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        out = np.empty(x.shape[0])
        for start in range(0, x.shape[0], CHUNK):
            neighbors = self._neighbors(x[start : start + CHUNK])
            out[start : start + CHUNK] = self.y_train[neighbors].mean(axis=1)
        return out

    def _neighbors(self, xq: np.ndarray) -> np.ndarray:
        """Training indices of each query's k nearest points, nearest first."""
        qc = xq - self._x_mean
        q_sq = (qc * qc).sum(axis=1)
        approx = q_sq[:, None] + self._sq_norms[None, :] - 2.0 * (qc @ self._x_centered.T)
        kth = np.partition(approx, self.k - 1, axis=1)[:, self.k - 1]
        limit = kth + self._SLACK * (q_sq + self._max_sq_norm)
        width = int((approx <= limit[:, None]).sum(axis=1).max())
        candidates = np.sort(np.argpartition(approx, width - 1, axis=1)[:, :width], axis=1)
        d2 = ((xq[:, None, :] - self.x_train[candidates]) ** 2).sum(axis=2)
        order = np.argsort(d2, axis=1, kind="stable")[:, : self.k]
        return np.take_along_axis(candidates, order, axis=1)


class LocalLinearRegressor:
    """Local linear smoother with a product Gaussian kernel.

    At each query point a weighted least-squares line (plane) is fitted to the
    training sample with weights exp(-0.5 * sum_d ((x_d - X_td) / h_d)^2); the
    prediction is the fitted intercept.  Queries in sparse regions, where the
    total kernel weight falls below ``MIN_EFFECTIVE_WEIGHT``, have their
    bandwidths doubled (up to ``MAX_INFLATIONS`` times) until enough effective
    neighbors contribute; with a fixed bandwidth the prediction variance is
    unbounded in the tails of an unbounded design, while a weighted linear fit
    stays exact for linear targets under any weights.  Queries whose local
    Gram matrix is still ill conditioned fall back to the kernel-weighted
    mean, and to the global training mean if every weight underflows, so
    predictions are always finite.

    The local normal equations come from one GEMM per block of ``CHUNK``
    queries: the weights times a training design centred once at the
    training mean, with columns 1, Xc, the upper triangle of Xc Xc', yc and
    Xc yc (yc the mean-centred response).  Each query's moments are then
    moved from the training mean to the query in closed form, giving the
    same (p+1) x (p+1) Gram matrix and right-hand side as centring the design
    at the query, without any (queries x training x p) temporary.  The
    condition gate takes eigenvalues of the symmetric Gram matrices
    (``spd_condition_number``).
    """

    MIN_EFFECTIVE_WEIGHT = 20.0
    MAX_INFLATIONS = 16

    def __init__(self, x_train: np.ndarray, y_train: np.ndarray, bandwidths: np.ndarray):
        bandwidths = np.asarray(bandwidths, dtype=float)
        if np.any(bandwidths <= 0) or not np.all(np.isfinite(bandwidths)):
            raise OutOfRange("bandwidths must be positive and finite")
        self.x_train = x_train
        self.y_train = y_train
        self.bandwidths = bandwidths
        # solving on mean-centered responses keeps the response level out of
        # the local solve (constant responses reproduce exactly)
        self._y_mean = float(np.mean(y_train))
        self._y_centered = y_train - self._y_mean
        self._x_mean = x_train.mean(axis=0)
        xc = x_train - self._x_mean
        self._upper = np.triu_indices(xc.shape[1])
        rows, cols = self._upper
        self._moment_design = np.column_stack([
            np.ones(xc.shape[0]),
            xc,
            xc[:, rows] * xc[:, cols],
            self._y_centered,
            xc * self._y_centered[:, None],
        ])

    def predict(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        out = np.empty(x.shape[0])
        for start in range(0, x.shape[0], CHUNK):
            out[start : start + CHUNK], _ = self._predict_block(x[start : start + CHUNK])
        return out

    def _floored_weights(self, xq: np.ndarray) -> np.ndarray:
        w = _gaussian_weights(self.x_train, self.bandwidths, xq)
        if self.x_train.shape[0] <= self.MIN_EFFECTIVE_WEIGHT:
            return w
        pending = w.sum(axis=1) < self.MIN_EFFECTIVE_WEIGHT
        factor = 1.0
        for _ in range(self.MAX_INFLATIONS):
            if not pending.any():
                break
            factor *= 2.0
            rows = np.flatnonzero(pending)
            w_new = _gaussian_weights(self.x_train, self.bandwidths * factor, xq[rows])
            w[rows] = w_new
            pending[rows[w_new.sum(axis=1) >= self.MIN_EFFECTIVE_WEIGHT]] = False
        return w

    def _predict_block(self, xq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Predictions for one block of queries, and which passed the condition gate."""
        nq, p = xq.shape
        rows, cols = self._upper
        moments = self._floored_weights(xq) @ self._moment_design
        s0 = moments[:, 0]
        m1 = moments[:, 1 : 1 + p]
        m2 = moments[:, 1 + p : 1 + p + rows.size]
        t0 = moments[:, 1 + p + rows.size]
        u1 = moments[:, 2 + p + rows.size :]
        # Move the moments from the training mean to the query point d:
        # sum w (X - xq) = m1 - s0 d, sum w (X - xq)(X - xq)' = M2 - m1 d' - d m1' + s0 d d',
        # sum w (X - xq) y = u1 - t0 d.  Both triangles are built alike, so
        # the Gram matrix is exactly symmetric.
        d = xq - self._x_mean
        cross = m1[:, :, None] * d[:, None, :]
        gram = np.empty((nq, p + 1, p + 1))
        gram[:, 0, 0] = s0
        gram[:, 0, 1:] = gram[:, 1:, 0] = m1 - s0[:, None] * d
        s2 = gram[:, 1:, 1:]
        s2[:, rows, cols] = m2
        s2[:, cols, rows] = m2
        s2 -= cross + cross.transpose(0, 2, 1)
        s2 += s0[:, None, None] * (d[:, :, None] * d[:, None, :])
        rhs = np.empty((nq, p + 1))
        rhs[:, 0] = t0
        rhs[:, 1:] = u1 - t0[:, None] * d
        ok = spd_condition_number(gram) <= MAX_CONDITION_NUMBER
        out = np.empty(nq)
        if np.any(ok):
            out[ok] = (
                np.linalg.solve(gram[ok], rhs[ok][:, :, None])[:, 0, 0] + self._y_mean
            )
        if np.any(~ok):
            bad_s0 = s0[~ok]
            local_mean = np.where(bad_s0 > 0, t0[~ok] / np.where(bad_s0 > 0, bad_s0, 1.0), 0.0)
            out[~ok] = local_mean + self._y_mean
        return out, ok


def fit_conditional_mean(
    train: Dataset,
    kind: str,
    bandwidth: float | np.ndarray | None = None,
    n_neighbors: int | None = None,
) -> OlsLinearRegressor | KnnRegressor | LocalLinearRegressor:
    """Fit one regressor from the menu on the training subsample; ``predict``
    on the result is pure and deterministic.

    ``bandwidth`` applies to local-linear (scalar or per-dimension; default is
    the rule-of-thumb bandwidth per covariate dimension), ``n_neighbors`` to
    k-NN (default ceil(n^(4/5)/4)).
    """
    if kind == "ols-linear":
        return OlsLinearRegressor(ols_fit(train.x, train.y, intercept=True))
    if kind == "k-nn":
        k = default_neighbor_count(train.n) if n_neighbors is None else int(n_neighbors)
        if not 1 <= k <= train.n:
            raise OutOfRange(f"n_neighbors must be in [1, {train.n}], got {k}")
        return KnnRegressor(train.x, train.y, k)
    if kind == "local-linear":
        if bandwidth is None:
            bands = np.array([silverman_bandwidth(train.x[:, d]) for d in range(train.p)])
        else:
            bands = np.broadcast_to(np.asarray(bandwidth, dtype=float), (train.p,)).copy()
        return LocalLinearRegressor(train.x, train.y, bands)
    raise OutOfRange(f"unknown regressor kind {kind!r}")


def crossfit_predict(
    data: Dataset,
    plan: SplitPlan,
    kind: str,
    target: str = "cond-mean",
    threshold: float | None = None,
    bandwidth: float | np.ndarray | None = None,
    n_neighbors: int | None = None,
) -> np.ndarray:
    """Cross-fitted nuisance predictions at every observation.

    Entry i comes from the regressor trained on the complement of i's fold,
    so it never depends on observation i itself.  ``target`` selects the
    response: the raw y ("cond-mean") or the indicators 1(y < threshold)
    ("cond-cdf"), whose predictions estimate the conditional CDF at
    ``threshold`` and are clamped to [0, 1].
    """
    if plan.n != data.n:
        raise PlanMismatch(f"plan built for n={plan.n}, dataset has n={data.n}")
    if target == "cond-mean":
        response = data.y
    elif target == "cond-cdf":
        if threshold is None or not math.isfinite(threshold):
            raise OutOfRange("cond-cdf target needs a finite threshold")
        response = (data.y < threshold).astype(float)
    else:
        raise OutOfRange(f"unknown crossfit target {target!r}")

    predictions = np.empty(data.n)
    for m in range(plan.n_folds):
        test = plan.fold(m)
        train = plan.complement(m)
        regressor = fit_conditional_mean(
            Dataset(response[train], data.x[train]),
            kind,
            bandwidth=bandwidth,
            n_neighbors=n_neighbors,
        )
        predictions[test] = regressor.predict(data.x[test])
    if target == "cond-cdf":
        predictions = np.clip(predictions, 0.0, 1.0)
    return predictions


def empirical_quantile(y, tau: float) -> float:
    """Order statistic Y_(ceil(n*tau)) of the sample."""
    if not 0.0 < tau < 1.0:
        raise OutOfRange(f"tau must be in (0, 1), got {tau}")
    y = np.asarray(y, dtype=float)
    if y.size == 0:
        raise TooFewObservations("empirical quantile of an empty sample")
    k = math.ceil(y.size * tau)
    return float(np.sort(y, kind="stable")[k - 1])


def silverman_bandwidth(sample) -> float:
    """Rule-of-thumb bandwidth 1.06 * min(sd, IQR/1.34) * n^(-1/5).

    The sample standard deviation uses divisor n-1.  A zero IQR with positive
    dispersion falls back to the standard deviation alone (the literal min
    would return a zero bandwidth).
    """
    sample = np.asarray(sample, dtype=float)
    if sample.size < 2:
        raise TooFewObservations("bandwidth rule needs at least 2 observations")
    sd = float(np.std(sample, ddof=1))
    q75, q25 = np.percentile(sample, [75.0, 25.0])
    iqr = float(q75 - q25)
    if sd == 0.0 and iqr == 0.0:
        raise ZeroDispersion("sample has zero dispersion")
    spread = min(sd, iqr / 1.34) if iqr > 0.0 else sd
    return 1.06 * spread * sample.size ** (-0.2)


@dataclass(frozen=True)
class KernelDensity:
    """Sample plus bandwidth, evaluated with a Gaussian kernel."""

    sample: np.ndarray
    bandwidth: float

    def __post_init__(self):
        sample = np.asarray(self.sample, dtype=float)
        if sample.ndim != 1 or sample.size < 1:
            raise OutOfRange("kernel density needs a nonempty 1-d sample")
        if not (self.bandwidth > 0 and math.isfinite(self.bandwidth)):
            raise OutOfRange(f"bandwidth must be positive, got {self.bandwidth}")
        sample.setflags(write=False)
        object.__setattr__(self, "sample", sample)
        object.__setattr__(self, "bandwidth", float(self.bandwidth))


def kde_eval(kd: KernelDensity, point: float) -> float:
    """Marginal density estimate (nh)^-1 sum K((point - s_i)/h)."""
    z = (float(point) - kd.sample) / kd.bandwidth
    return float(np.mean(np.exp(-0.5 * z * z)) / (kd.bandwidth * _SQRT_2PI))


def _gaussian_weights(x_sample: np.ndarray, bandwidths: np.ndarray, xq: np.ndarray) -> np.ndarray:
    """Unnormalized product-Gaussian kernel weights, (queries x sample).

    Squared distances come from the expanded bilinear form (BLAS-backed);
    cancellation can leave tiny negatives, clipped at zero.
    """
    a = xq / bandwidths
    b = x_sample / bandwidths
    cross = a @ b.T
    cross *= 2.0
    d2 = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :]
    d2 -= cross
    np.maximum(d2, 0.0, out=d2)
    d2 *= -0.5
    return np.exp(d2, out=d2)


def cond_kde_eval(
    x_sample,
    y_sample,
    x_bandwidths,
    y_bandwidth: float,
    x_point,
    y_point: float,
) -> float:
    """Conditional density estimate of y given x at one point.

    Kernel-weighted average over the paired sample: weights are normalized
    product Gaussian kernels in x; each pair contributes a Gaussian kernel in
    y with bandwidth ``y_bandwidth``.
    """
    profile = cond_kde_profile(x_sample, y_sample, x_bandwidths, y_bandwidth,
                               np.atleast_2d(np.asarray(x_point, dtype=float)), y_point)
    return float(profile[0])


def cond_kde_profile(
    x_sample,
    y_sample,
    x_bandwidths,
    y_bandwidth: float,
    x_queries: np.ndarray,
    y_point: float,
) -> np.ndarray:
    """Vectorized conditional density at one y value across many x queries."""
    x_sample = np.asarray(x_sample, dtype=float)
    if x_sample.ndim == 1:
        x_sample = x_sample[:, None]
    y_sample = np.asarray(y_sample, dtype=float)
    x_bandwidths = np.broadcast_to(
        np.asarray(x_bandwidths, dtype=float), (x_sample.shape[1],)
    )
    if np.any(x_bandwidths <= 0) or not y_bandwidth > 0:
        raise OutOfRange("bandwidths must be positive")
    x_queries = np.asarray(x_queries, dtype=float)
    if x_queries.ndim == 1:
        x_queries = x_queries[:, None]
    zy = (float(y_point) - y_sample) / y_bandwidth
    y_kernel = np.exp(-0.5 * zy * zy) / (y_bandwidth * _SQRT_2PI)
    out = np.empty(x_queries.shape[0])
    for start in range(0, x_queries.shape[0], CHUNK):
        w = _gaussian_weights(x_sample, x_bandwidths, x_queries[start : start + CHUNK])
        sw = w.sum(axis=1)
        if np.any(sw <= 0.0):
            raise EmptyNeighborhood(
                "all covariate kernel weights underflowed to zero at a query point"
            )
        out[start : start + CHUNK] = (w @ y_kernel) / sw
    return out
