"""Nuisance-function estimation stack.

The door that scales every input by powers of two (``unit_scaled``),
cross-fitting partitions, the regressor menu (pooled least squares, k-nearest
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

# Gram matrices whose condition-number bound (``cholesky_gate``) exceeds this
# are treated as singular.
MAX_CONDITION_NUMBER = 1e12

# Bytes of one (queries x training) slab of doubles in the kernel smoothers.
# A block takes as many queries as fit in it, and at least MIN_BLOCK_ROWS, so
# a block's temporaries stay cache-sized and do not grow with n until
# MIN_BLOCK_ROWS x n_train outgrows the budget (n_train > 16384).
BLOCK_BYTES = 1 << 20
MIN_BLOCK_ROWS = 8

_SQRT_2PI = math.sqrt(2.0 * math.pi)

REGRESSOR_KINDS = ("local-linear", "k-nn", "ols-linear")

# The least robust spread a column may have on the door's unit scale
# (``unit_scaled``), where every entry lies below 1 in magnitude.
MIN_SPREAD = 2.0**-100


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


def unit_scaled(data: Dataset, common_x: bool = False) -> Dataset:
    """The door every assessment passes its data through: y and each
    covariate column multiplied by the power of two that puts its largest
    magnitude in [0.5, 1), or, with ``common_x``, every covariate column by
    the one power that does so for the largest of them (linreg, whose kappa
    depends on each column's units, and k-NN, which ranks neighbours in raw
    units).  The products are exact, so no ratio of traces moves.

    A scaled column whose robust spread, the IQR or, where that is 0, the
    smallest nonzero distance from the median, is below ``MIN_SPREAD``
    raises :class:`OutOfRange`, naming its row farthest from the median
    (1-based), or, under ``common_x``, the column that is small next to the
    largest covariate column.  A constant column passes, for the method's
    own check.
    """
    own = np.frexp(np.abs(data.x).max(axis=0))[1]
    powers = np.full_like(own, own.max()) if common_x else own
    y = np.ldexp(data.y, -np.frexp(np.abs(data.y).max())[1])
    x = np.ldexp(data.x, -powers)
    columns = np.vstack([y, x.T])
    q75, q25 = np.percentile(columns, [75.0, 25.0], axis=1)
    for j in np.flatnonzero(q75 - q25 < MIN_SPREAD):
        raw = data.y if j == 0 else data.x[:, j - 1]
        if raw.min() == raw.max():
            continue
        distance = np.abs(columns[j] - np.median(columns[j]))
        nonzero = distance[distance > 0.0]
        # a column that the common scale flushed to zero has no spread left
        spread = q75[j] - q25[j] or (nonzero.min() if nonzero.size else 0.0)
        if spread >= MIN_SPREAD:
            continue
        name = "the response" if j == 0 else (
            f"covariate {data.column_names[j - 1]}" if data.column_names else f"covariate {j}")
        if j and spread >= np.ldexp(MIN_SPREAD, own[j - 1] - powers[j - 1]):
            raise OutOfRange(f"{name} is too small next to the largest covariate column: on "
                             f"their common scale its robust spread is {spread:.3g}, below 2^-100")
        raise OutOfRange(f"{name}: row {int(np.argmax(distance)) + 1} lies so far from the "
                         f"median that the robust spread is {spread:.3g} of the largest "
                         "magnitude, below 2^-100")
    return Dataset(y, x, data.column_names)


def ols_fit(x, y) -> np.ndarray:
    """Least-squares coefficients via the normal equations, from
    ``equilibrated_solve``: the intercept first, then one slope per column.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    design = np.column_stack([np.ones(x.shape[0]), x])
    solved = equilibrated_solve(design.T @ design, design.T @ y)
    if solved is None:
        raise SingularDesign("Gram matrix is singular or too ill conditioned")
    return solved[0]


def cholesky_gate(gram: np.ndarray, rhs: np.ndarray):
    """Factor-and-bound gate for a stack of symmetric matrices.

    Each matrix G (the last two axes of ``gram``) is factored as G = L L' by
    one batched Cholesky.  It passes when the factorization succeeds and
    ||G||_F ||L^-1||_F^2 is at most ``MAX_CONDITION_NUMBER``: since
    ||G^-1||_2 = ||L^-1||_2^2, that product bounds the 2-norm condition
    number from above (by at most a factor r^1.5 for r x r matrices), so
    no matrix that passes is worse conditioned than the limit, up to the
    rounding of a condition number that sits at the limit itself.  L^-1
    and L^-1 rhs (``rhs`` holds one vector per matrix) come from one
    forward substitution on [I | rhs], the package's only solve.  A batch
    in which some matrix does not factor is factored matrix by matrix, so
    no decision or solution depends on which matrices share a batch.
    Returns (passes, L^-1, L^-1 rhs); the last two are meaningless where a
    matrix fails.
    """
    batch, r = gram.shape[:-2], gram.shape[-1]
    factored = np.ones(batch, dtype=bool)
    try:
        factor = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        factor = np.empty_like(gram)
        for i in np.ndindex(batch):
            try:
                factor[i] = np.linalg.cholesky(gram[i])
            except np.linalg.LinAlgError:
                factor[i] = np.eye(r)
                factored[i] = False
    aug = np.zeros(batch + (r, r + 1))
    aug[..., :r] = np.eye(r)
    aug[..., r] = rhs
    sol = np.empty_like(aug)
    # a tiny pivot can overflow the inverse; such a matrix fails the bound
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(r):
            row = aug[..., i, :]
            if i:
                row = row - (factor[..., i, None, :i] @ sol[..., :i, :])[..., 0, :]
            np.divide(row, factor[..., i, i, None], out=sol[..., i, :])
        l_inv = sol[..., :r]
        bound = np.sqrt((gram * gram).sum(axis=(-2, -1))) * (l_inv * l_inv).sum(axis=(-2, -1))
        passes = factored & (bound <= MAX_CONDITION_NUMBER)
    return passes, l_inv, sol[..., r]


def equilibrated_solve(gram: np.ndarray, rhs: np.ndarray):
    """``cholesky_gate`` for one Gram matrix G of an uncentred design (OLS,
    linreg), which has no natural units: the gate sees D^-1/2 G D^-1/2 with
    D = diag(G), so rescaling a covariate column cannot move the decision.
    Returns G^-1 rhs and G^-1, both from the factor that passed, or None
    where G fails (a column of zeros leaves a zero on D).
    """
    diag = gram.diagonal()
    if not (diag > 0.0).all():
        return None
    inv_root = 1.0 / np.sqrt(diag)
    passes, l_inv, z = cholesky_gate(gram * inv_root[:, None] * inv_root, rhs * inv_root)
    if not passes:
        return None
    m = l_inv * inv_root  # G^-1 = M'M
    return inv_root * (l_inv.T @ z), m.T @ m


def default_neighbor_count(n_train: int) -> int:
    """Default k for k-NN regression, ceil(n^(4/5) / 4), clipped to [1, n]."""
    return min(max(1, math.ceil(n_train**0.8 / 4.0)), n_train)


class OlsLinearRegressor:
    def __init__(self, coef: np.ndarray):
        self.coef = np.asarray(coef, dtype=float)

    def predict(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
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

    The sample is centred at its column means and scaled by the bandwidths
    once (``scaled``); queries get the same centre and scale, so a large
    covariate offset cannot cancel the distances away.  ``log_weights`` then
    writes -0.5 * sum_d ((q_d - x_d) / h_d)^2 as min(a.b - |b|^2/2 - |a|^2/2, 0)
    for centred, scaled query a and sample point b, in one GEMM of augmented
    operands, [a, 1, |a|^2/2] times the C-contiguous (p+2) x n array
    [b'; -|b|^2/2; -1] built here, and one clip at zero: the expanded
    bilinear form, with cancellation's tiny positives clipped.  Multiplying
    every bandwidth by 2^k scales every term of the GEMM, and so the result,
    by exactly 4^-k, unless a scaled value falls in the subnormal range.
    The bandwidths must be positive and finite.
    """

    def __init__(self, x_sample: np.ndarray, bandwidths):
        bandwidths = np.asarray(bandwidths, dtype=float)
        if np.any(bandwidths <= 0) or not np.all(np.isfinite(bandwidths)):
            raise OutOfRange("bandwidths must be positive and finite")
        self.bandwidths = bandwidths
        self.centre = x_sample.mean(axis=0)
        self.scaled = (x_sample - self.centre) / bandwidths
        p = self.scaled.shape[1]
        self._operand = np.empty((p + 2, self.scaled.shape[0]))
        self._operand[:p] = self.scaled.T
        self._operand[p] = -0.5 * (self.scaled * self.scaled).sum(axis=1)
        self._operand[p + 1] = -1.0

    def log_weights(self, xq: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Log-weights of a query block into ``out`` (queries x sample)."""
        p = xq.shape[1]
        query = np.empty((xq.shape[0], p + 2))
        a = query[:, :p]
        np.divide(xq - self.centre, self.bandwidths, out=a)
        query[:, p + 1] = 0.5 * (a * a).sum(axis=1)
        query[:, p] = 1.0
        np.matmul(query, self._operand, out=out)
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
    skipped levels could not pass).

    Queries run in blocks sized by ``BLOCK_BYTES``; the block's log-weights,
    weights, re-weighted pending rows and moments live in the thread's
    workspace.  The local normal equations are set up in bandwidth units,
    coordinates (X - xq) / h, which leaves the intercept unchanged.  They
    come from one GEMM per block: the weights times a training design
    centred once at the training mean and scaled by the bandwidths, with
    columns 1, Xc, the upper triangle of Xc Xc', yc and Xc yc (yc the
    mean-centred response), written once per fit.  Each query's moments are
    then moved from the training mean to the query in closed form, giving
    the same (p+1) x (p+1) Gram matrix and right-hand side as centring the
    design at the query, without any (queries x training x p) temporary.

    ``cholesky_gate`` decides whether a local solve is trusted, on that Gram
    matrix in bandwidth units, and gives the intercept from the same factor.
    A change of covariate units rescales the bandwidths with it, so the
    decision does not move.  Scaling by the bandwidths, and not by each
    query's own diagonal, keeps a direction with numerically no spread
    (a covariate constant near the query) at its true, tiny size, so it
    fails the gate.  Queries that fail fall back to the kernel-weighted
    mean, and to the global training mean if every weight underflows, so
    predictions are always finite.
    """

    MIN_EFFECTIVE_WEIGHT = 20.0
    MAX_INFLATIONS = 16
    # Relative slack on the start-level bound; it covers the rounding of the
    # exp and of the row sums, so no level that could pass is skipped.
    _SLACK = 1e-9

    def __init__(self, x_train: np.ndarray, y_train: np.ndarray, bandwidths):
        self._kernel = _GaussianKernel(x_train, bandwidths)
        self.x_train = x_train
        self.y_train = y_train
        self.bandwidths = self._kernel.bandwidths
        xc = self._kernel.scaled
        n, p = xc.shape
        self._upper = np.triu_indices(p)
        n_upper = self._upper[0].size
        # columns 1 | Xc | Xc_j Xc_k for j <= k, row by row of the triangle | yc | Xc yc
        design = np.empty((n, 2 + 2 * p + n_upper))
        design[:, 0] = 1.0
        design[:, 1 : 1 + p] = xc
        start = 1 + p
        for j in range(p):
            np.multiply(xc[:, j : j + 1], xc[:, j:], out=design[:, start : start + p - j])
            start += p - j
        # solving on mean-centered responses keeps the response level out of
        # the local solve (constant responses reproduce exactly)
        self._y_mean = float(np.mean(y_train))
        y_centered = y_train - self._y_mean
        design[:, start] = y_centered
        np.multiply(xc, y_centered[:, None], out=design[:, start + 1 :])
        self._moment_design = design

    def predict(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
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
        self._kernel.log_weights(xq, out=log_w)
        if n_train <= self.MIN_EFFECTIVE_WEIGHT:
            return np.exp(log_w, out=w)
        scales = np.ldexp(1.0, -2 * np.arange(self.MAX_INFLATIONS + 1))
        bound = n_train * np.exp(log_w.max(axis=1)[:, None] * scales)
        admits = bound >= self.MIN_EFFECTIVE_WEIGHT * (1.0 - self._SLACK)
        level = np.where(admits.any(axis=1), admits.argmax(axis=1), self.MAX_INFLATIONS)
        # a row at level 0 is multiplied by 1.0, exactly
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
        # Move the moments from the training mean to the query point d, all
        # in bandwidth units: sum w (X - xq) = m1 - s0 d,
        # sum w (X - xq)(X - xq)' = M2 - m1 d' - d m1' + s0 d d',
        # sum w (X - xq) y = u1 - t0 d.  Both triangles are built alike, so
        # the Gram matrix is exactly symmetric.
        d = (xq - self._kernel.centre) / self.bandwidths
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
        ok, l_inv, z = cholesky_gate(gram, rhs)
        out = np.empty(nq)
        # the intercept, row 0 of G^-1 rhs = L^-T (L^-1 rhs): column 0 of L^-1 dotted with z
        out[ok] = np.einsum("qk,qk->q", l_inv[ok, :, 0], z[ok]) + self._y_mean
        if not ok.all():
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


def kde_eval(sample, bandwidth: float, point: float) -> float:
    """Gaussian kernel density estimate (nh)^-1 sum K((point - s_i)/h) of a
    nonempty 1-d sample at bandwidth h > 0."""
    sample = np.asarray(sample, dtype=float)
    if sample.ndim != 1 or sample.size < 1:
        raise OutOfRange("kernel density needs a nonempty 1-d sample")
    if not (bandwidth > 0 and math.isfinite(bandwidth)):
        raise OutOfRange(f"bandwidth must be positive, got {bandwidth}")
    bandwidth = float(bandwidth)
    z = (float(point) - sample) / bandwidth
    return float(np.mean(np.exp(-0.5 * z * z)) / (bandwidth * _SQRT_2PI))


def cond_kde_profile(
    x_sample,
    y_sample,
    x_bandwidths,
    y_bandwidth: float,
    x_queries: np.ndarray,
    y_point: float,
) -> np.ndarray:
    """Vectorized conditional density at one y value across many x queries."""
    if not (y_bandwidth > 0 and math.isfinite(y_bandwidth)):
        raise OutOfRange(f"y bandwidth must be positive and finite, got {y_bandwidth}")
    x_sample = np.asarray(x_sample, dtype=float)
    y_sample = np.asarray(y_sample, dtype=float)
    x_queries = np.asarray(x_queries, dtype=float)
    zy = (float(y_point) - y_sample) / y_bandwidth
    y_kernel = np.exp(-0.5 * zy * zy) / (y_bandwidth * _SQRT_2PI)
    kernel = _GaussianKernel(x_sample, x_bandwidths)
    out = np.empty(x_queries.shape[0])
    for block in _query_blocks(x_queries.shape[0], x_sample.shape[0]):
        xq = x_queries[block]
        shape = (xq.shape[0], x_sample.shape[0])
        w = kernel.log_weights(xq, out=_WORKSPACE.take("log_w", shape))
        np.exp(w, out=w)
        sw = w.sum(axis=1)
        if np.any(sw <= 0.0):
            raise EmptyNeighborhood(
                "all covariate kernel weights underflowed to zero at a query point"
            )
        out[block] = (w @ y_kernel) / sw
    return out
