"""Nuisance-function estimation stack.

Cross-fitting partitions, the regressor menu (pooled least squares, k-nearest
neighbors, local linear smoothing) with fixed smoothing rules, cross-fitted
predictions, Gaussian kernel density estimation with rule-of-thumb
bandwidths, and empirical quantiles.  Everything here is deterministic given
its inputs; the only randomness is the seeded fold assignment.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import (
    EmptyNeighborhood,
    OutOfRange,
    SingularDesign,
    TooFewObservations,
    ZeroDispersion,
)

# Cross-fitting folds: a fixed rule, like the bandwidth and neighbour rules.
N_FOLDS = 5
# The smallest n whose first half (``split_halves``) still holds two rows per
# fold: ceil(n / 2) >= 2 * N_FOLDS.
MIN_SPLIT_N = 4 * N_FOLDS - 1

# Gram matrices at or beyond this condition number are treated as singular.
MAX_CONDITION_NUMBER = 1e12

# Bytes of one (queries x training) slab of doubles in the kernel smoothers.
# A block takes as many queries as fit in it, and at least MIN_BLOCK_ROWS, so
# a block's temporaries stay cache-sized and do not grow with n until
# MIN_BLOCK_ROWS x n_train outgrows the budget (n_train > 16384).
BLOCK_BYTES = 1 << 20
MIN_BLOCK_ROWS = 8

_SQRT_2PI = math.sqrt(2.0 * math.pi)

REGRESSOR_KINDS = ("local-linear", "k-nn", "ols-linear")


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
    """Deterministic ``N_FOLDS``-fold partition of 0..n-1."""

    assignment: np.ndarray  # fold id per observation, 0-based

    def fold(self, m: int) -> np.ndarray:
        return np.flatnonzero(self.assignment == m)

    def complement(self, m: int) -> np.ndarray:
        return np.flatnonzero(self.assignment != m)


def make_split_plan(n: int, seed: int) -> SplitPlan:
    """Partition 0..n-1 into ``N_FOLDS`` folds of near-equal size.

    A seeded Fisher-Yates shuffle is cut into contiguous blocks; the first
    ``n mod N_FOLDS`` folds are one observation larger.  Identical (n, seed)
    always reproduces the identical plan.
    """
    if n < 2 * N_FOLDS:
        raise TooFewObservations(
            f"need n >= {2 * N_FOLDS} for {N_FOLDS} usable folds, got n={n}"
        )
    gen = rng.substream(seed, rng.DOMAIN_SPLIT)
    order = rng.fisher_yates(gen, n)
    base, rem = divmod(n, N_FOLDS)
    assignment = np.empty(n, dtype=np.int64)
    start = 0
    for fold_id in range(N_FOLDS):
        size = base + (1 if fold_id < rem else 0)
        assignment[order[start : start + size]] = fold_id
        start += size
    return SplitPlan(assignment)


def split_halves(data: Dataset) -> tuple[Dataset, Dataset]:
    """The half-sample split: the first ceil(n/2) observations and the rest."""
    n_half = math.ceil(data.n / 2)
    if data.n - n_half < 1:
        raise TooFewObservations("split estimate needs a nonempty second half")
    return data.take(np.arange(n_half)), data.take(slice(n_half, None))


def ols_fit(x, y) -> np.ndarray:
    """Least-squares coefficients via the normal equations: the intercept
    first, then one slope per covariate column.  The Gram matrix must be well
    conditioned (condition number below ``MAX_CONDITION_NUMBER``).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    y = np.asarray(y, dtype=float)
    design = np.column_stack([np.ones(x.shape[0]), x])
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


class _Workspace(threading.local):
    """Scratch arrays for the kernel smoothers, one set per thread.

    ``take`` hands out a C-contiguous view of a named buffer that grows to
    the largest request seen and is then reused, so the blocks of every
    later pass fault in no fresh pages.  Blocks are sized by
    ``BLOCK_BYTES``, so the buffers are too, whatever n is.  Each name keeps
    one dtype.  Every caller writes what it takes before reading it, and no
    public function returns workspace memory, so no result depends on an
    earlier call.
    """

    def __init__(self):
        self._buffers = {}

    def take(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = np.empty(max(size, BLOCK_BYTES // 8), dtype)
            self._buffers[name] = buf
        return buf[:size].reshape(shape)


_WORKSPACE = _Workspace()


def _query_blocks(n_queries: int, n_train: int):
    """Slices of consecutive queries whose (queries x training) slab of
    doubles fits in ``BLOCK_BYTES``, with at least ``MIN_BLOCK_ROWS`` rows."""
    rows = max(MIN_BLOCK_ROWS, BLOCK_BYTES // (8 * n_train))
    return (slice(start, start + rows) for start in range(0, n_queries, rows))


class KnnRegressor:
    """k-nearest-neighbour regressor: the mean response of the ``k`` training
    points nearest to each query in Euclidean distance.

    Neighbours are ranked by the exact squared distance sum_d (x_d - X_td)^2,
    and ties go to the lowest training index.  Queries run in blocks sized
    by ``BLOCK_BYTES``, with every (queries x training) temporary in the
    thread's workspace.  Within a block, half the bilinear-form distance,
    (|q|^2 + |t|^2) / 2 - q.t about the training mean, comes from one GEMM;
    an in-place partial selection of a copy gives each row's k-th smallest.
    Every training point up to that value plus a small relative slack that
    covers the rounding error is a candidate; when a row has more than k,
    the block takes the same number of smallest per row by ``argpartition``.
    Only the candidates, in ascending index order, are ranked by exact
    squared distance: by a fast sort, or by a stable sort in a block where
    some row has equal distances.  Neighbour sets, their order and the
    predictions are therefore the same, bit for bit, as a stable argsort of
    all exact distances, in memory bounded by the block budget.
    """

    # Candidate slack, relative to (|q|^2 + max |t|^2) / 2 about the training mean.
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
        self._half_sq_norms = 0.5 * (self._x_centered * self._x_centered).sum(axis=1)
        self._half_max_sq_norm = float(self._half_sq_norms.max())

    def predict(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        out = np.empty(x.shape[0])
        for block in _query_blocks(x.shape[0], self.x_train.shape[0]):
            out[block] = self.y_train[self._neighbors(x[block])].mean(axis=1)
        return out

    def _neighbors(self, xq: np.ndarray) -> np.ndarray:
        """Training indices of each query's k nearest points, nearest first."""
        nq, n_train = xq.shape[0], self.x_train.shape[0]
        qc = xq - self._x_mean
        half_q_sq = 0.5 * (qc * qc).sum(axis=1)
        approx = _WORKSPACE.take("knn_approx", (nq, n_train))
        work = _WORKSPACE.take("knn_work", (nq, n_train))
        np.matmul(qc, self._x_centered.T, out=work)
        np.copyto(approx, self._half_sq_norms)
        approx += half_q_sq[:, None]
        approx -= work
        np.copyto(work, approx)
        work.partition(self.k - 1, axis=1)
        limit = work[:, self.k - 1] + self._SLACK * (half_q_sq + self._half_max_sq_norm)
        within = _WORKSPACE.take("knn_within", (nq, n_train), dtype=bool)
        np.less_equal(approx, limit[:, None], out=within)
        counts = np.count_nonzero(within, axis=1)
        # a row holds at least its k smallest; with exactly k everywhere they
        # are the candidates, already in ascending index order
        if np.all(counts == self.k):
            candidates = np.flatnonzero(within).reshape(nq, self.k)
            candidates -= n_train * np.arange(nq)[:, None]
        else:
            width = int(counts.max())
            candidates = np.sort(np.argpartition(approx, width - 1, axis=1)[:, :width], axis=1)
        diff = _WORKSPACE.take("knn_diff", candidates.shape + (xq.shape[1],))
        np.take(self.x_train, candidates, axis=0, out=diff, mode="clip")
        np.subtract(xq[:, None, :], diff, out=diff)
        diff *= diff
        d2 = diff.sum(axis=2)
        order = np.argsort(d2, axis=1)
        # equal distances may come out in any order; only a stable sort keeps
        # the lower training index first
        ranked = np.take_along_axis(d2, order, axis=1)
        if np.any(ranked[:, 1:] == ranked[:, :-1]):
            order = np.argsort(d2, axis=1, kind="stable")
        return np.take_along_axis(candidates, order[:, : self.k], axis=1)


class _GaussianKernel:
    """Product-Gaussian kernel of a fixed sample and bandwidths, evaluated
    for blocks of queries.

    The sample is centred at its column means and scaled by the bandwidths,
    and half its squared norms are taken, once; queries get the same centre
    and scale, so a large covariate offset cannot cancel the distances away.
    ``log_weights`` then writes -0.5 * sum_d ((q_d - x_d) / h_d)^2 as
    min(a.b - (|b|^2 / 2 + |a|^2 / 2), 0) for centred, scaled query a and
    sample point b, in one GEMM and four elementwise passes: the expanded
    bilinear form, with cancellation's tiny positives clipped at zero.  That is
    -0.5 * max(|a|^2 + |b|^2 - 2 a.b, 0) with its steps scaled by exact
    powers of two, so the two agree bit for bit.  Multiplying every
    bandwidth by 2^k scales each step of the form, and so the result, by
    exactly 4^-k, unless a scaled value falls in the subnormal range.
    """

    def __init__(self, x_sample: np.ndarray, bandwidths: np.ndarray):
        self.bandwidths = bandwidths
        self.centre = x_sample.mean(axis=0)
        self._scaled = (x_sample - self.centre) / bandwidths
        self._half_sq_norms = 0.5 * (self._scaled * self._scaled).sum(axis=1)

    def log_weights(self, xq: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """Log-weights of a query block into ``out`` (queries x sample);
        ``scratch``, of the same shape, is overwritten."""
        a = (xq - self.centre) / self.bandwidths
        np.matmul(a, self._scaled.T, out=scratch)
        np.copyto(out, self._half_sq_norms)
        out += 0.5 * (a * a).sum(axis=1)[:, None]
        np.subtract(scratch, out, out=out)
        return np.minimum(out, 0.0, out=out)


class LocalLinearRegressor:
    """Local linear smoother with a product Gaussian kernel.

    At each query point a weighted least-squares line (plane) is fitted to the
    training sample with weights exp(-0.5 * sum_d ((x_d - X_td) / h_d)^2); the
    prediction is the fitted intercept.  Queries in sparse regions, where the
    total kernel weight falls below ``MIN_EFFECTIVE_WEIGHT``, have their
    bandwidths doubled (up to ``MAX_INFLATIONS`` times) until enough effective
    neighbors contribute; with a fixed bandwidth the prediction variance is
    unbounded in the tails of an unbounded design, while a weighted linear fit
    stays exact for linear targets under any weights.  The log-weights of a
    query block are computed once: doubling the bandwidths k times multiplies
    them by 4^-k, exactly, so each level costs one multiply and one exp and
    matches recomputing the block at the doubled bandwidths bit for bit.  A
    row sums to at most n_train times its largest weight, so each query
    starts at the first level where that bound can reach the floor (the
    skipped levels could not pass).  Queries whose local
    Gram matrix is still ill conditioned fall back to the kernel-weighted
    mean, and to the global training mean if every weight underflows, so
    predictions are always finite.

    Queries run in blocks sized by ``BLOCK_BYTES``; the block's log-weights,
    weights, re-weighted pending rows and moments live in the thread's
    workspace.  The local normal equations come from one GEMM per block:
    the weights times a training design centred once at the training mean,
    with columns 1, Xc, the upper triangle of Xc Xc', yc and Xc yc (yc the
    mean-centred response).  Each query's moments are then moved from the
    training mean to the query in closed form, giving the same
    (p+1) x (p+1) Gram matrix and right-hand side as centring the design at
    the query, without any (queries x training x p) temporary.  The
    condition gate takes eigenvalues of the symmetric Gram matrices
    (``spd_condition_number``).
    """

    MIN_EFFECTIVE_WEIGHT = 20.0
    MAX_INFLATIONS = 16
    # Relative slack on the start-level bound; it covers the rounding of the
    # exp and of the row sums, so no level that could pass is skipped.
    _SLACK = 1e-9

    def __init__(self, x_train: np.ndarray, y_train: np.ndarray, bandwidths: np.ndarray):
        bandwidths = np.asarray(bandwidths, dtype=float)
        if np.any(bandwidths <= 0) or not np.all(np.isfinite(bandwidths)):
            raise OutOfRange("bandwidths must be positive and finite")
        self.x_train = x_train
        self.y_train = y_train
        self.bandwidths = bandwidths
        self._kernel = _GaussianKernel(x_train, bandwidths)
        # solving on mean-centered responses keeps the response level out of
        # the local solve (constant responses reproduce exactly)
        self._y_mean = float(np.mean(y_train))
        self._y_centered = y_train - self._y_mean
        self._x_mean = self._kernel.centre
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
        for block in _query_blocks(x.shape[0], self.x_train.shape[0]):
            out[block], _ = self._predict_block(x[block])
        return out

    def _floored_weights(self, xq: np.ndarray) -> np.ndarray:
        """Kernel weights of a query block: row i is the kernel row at bandwidths
        h * 2^k for the first k whose row sum reaches ``MIN_EFFECTIVE_WEIGHT``,
        or k = ``MAX_INFLATIONS``.  Level k is exp(L * 4^-k) of the block's
        log-weights L; a row starts at the first level where n_train times its
        largest weight, exp(max(L) * 4^-k), can reach the floor.  The result
        is workspace memory, valid until the thread's next block.
        """
        n_train = self.x_train.shape[0]
        shape = (xq.shape[0], n_train)
        log_w = _WORKSPACE.take("log_w", shape)
        w = _WORKSPACE.take("w", shape)
        self._kernel.log_weights(xq, out=log_w, scratch=w)
        if n_train <= self.MIN_EFFECTIVE_WEIGHT:
            return np.exp(log_w, out=w)
        scales = np.ldexp(1.0, -2 * np.arange(self.MAX_INFLATIONS + 1))
        bound = n_train * np.exp(log_w.max(axis=1)[:, None] * scales)
        admits = bound >= self.MIN_EFFECTIVE_WEIGHT * (1.0 - self._SLACK)
        level = np.where(admits.any(axis=1), admits.argmax(axis=1), self.MAX_INFLATIONS)
        if level.any():
            log_w *= scales[level][:, None]
        np.exp(log_w, out=w)
        # every pending row moves up one level per step, from its start level
        pending = np.flatnonzero(
            (w.sum(axis=1) < self.MIN_EFFECTIVE_WEIGHT) & (level < self.MAX_INFLATIONS)
        )
        for step in range(1, self.MAX_INFLATIONS + 1):
            if pending.size == 0:
                break
            w_new = _WORKSPACE.take("pending", (pending.size, n_train))
            np.take(log_w, pending, axis=0, out=w_new, mode="clip")
            w_new *= scales[step]
            np.exp(w_new, out=w_new)
            w[pending] = w_new
            pending = pending[
                (w_new.sum(axis=1) < self.MIN_EFFECTIVE_WEIGHT)
                & (level[pending] + step < self.MAX_INFLATIONS)
            ]
        return w

    def _predict_block(self, xq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Predictions for one block of queries, and which passed the condition gate."""
        nq, p = xq.shape
        rows, cols = self._upper
        moments = _WORKSPACE.take("moments", (nq, self._moment_design.shape[1]))
        np.matmul(self._floored_weights(xq), self._moment_design, out=moments)
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
    train: Dataset, kind: str
) -> OlsLinearRegressor | KnnRegressor | LocalLinearRegressor:
    """Fit one regressor from the menu on the training subsample; ``predict``
    on the result is pure and deterministic.

    Smoothing follows fixed rules: k-NN uses k = ceil(n^(4/5)/4), local-linear
    the rule-of-thumb bandwidth per covariate dimension.
    """
    if kind == "ols-linear":
        return OlsLinearRegressor(ols_fit(train.x, train.y))
    if kind == "k-nn":
        return KnnRegressor(train.x, train.y, default_neighbor_count(train.n))
    if kind == "local-linear":
        return LocalLinearRegressor(train.x, train.y, silverman_bandwidth(train.x))
    raise OutOfRange(f"unknown regressor kind {kind!r}")


def crossfit_predict(data: Dataset, kind: str, seed: int) -> np.ndarray:
    """Cross-fitted predictions of ``data.y`` at every observation.

    The folds are ``make_split_plan(data.n, seed)``.  Entry i comes from the
    regressor trained on the complement of i's fold, so it never depends on
    observation i itself.
    """
    plan = make_split_plan(data.n, seed)
    predictions = np.empty(data.n)
    for m in range(N_FOLDS):
        test = plan.fold(m)
        regressor = fit_conditional_mean(data.take(plan.complement(m)), kind)
        predictions[test] = regressor.predict(data.x[test])
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


def silverman_bandwidth(sample) -> float | np.ndarray:
    """Rule-of-thumb bandwidth 1.06 * min(sd, IQR/1.34) * n^(-1/5).

    A vector gives one float; a matrix gives one bandwidth per column, from
    one pass over its rows (each column reduced as a vector would be).  The
    sample standard deviation uses divisor n-1.  A zero IQR with positive
    dispersion falls back to the standard deviation alone (the literal min
    would return a zero bandwidth).
    """
    sample = np.asarray(sample, dtype=float)
    if sample.ndim == 0 or sample.shape[0] < 2:
        raise TooFewObservations("bandwidth rule needs at least 2 observations")
    columns = np.ascontiguousarray(sample.reshape(sample.shape[0], -1).T)
    sd = np.std(columns, axis=1, ddof=1)
    q75, q25 = np.percentile(columns, [75.0, 25.0], axis=1)
    iqr = q75 - q25
    if np.any((sd == 0.0) & (iqr == 0.0)):
        raise ZeroDispersion("sample has zero dispersion")
    spread = np.where(iqr > 0.0, np.minimum(sd, iqr / 1.34), sd)
    bands = 1.06 * spread * columns.shape[1] ** (-0.2)
    return float(bands[0]) if sample.ndim == 1 else bands


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
    kernel = _GaussianKernel(x_sample, x_bandwidths)
    out = np.empty(x_queries.shape[0])
    for block in _query_blocks(x_queries.shape[0], x_sample.shape[0]):
        xq = x_queries[block]
        shape = (xq.shape[0], x_sample.shape[0])
        w = kernel.log_weights(xq, out=_WORKSPACE.take("log_w", shape),
                               scratch=_WORKSPACE.take("w", shape))
        np.exp(w, out=w)
        sw = w.sum(axis=1)
        if np.any(sw <= 0.0):
            raise EmptyNeighborhood(
                "all covariate kernel weights underflowed to zero at a query point"
            )
        out[block] = (w @ y_kernel) / sw
    return out
