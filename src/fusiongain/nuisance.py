"""Nuisance-function estimation stack.

The door that scales every input by powers of two (``unit_scaled``),
cross-fitting partitions, the regressor menu (pooled least squares, k-nearest
neighbors, local linear smoothing) with fixed smoothing rules, cross-fitted
predictions of r response columns in one pass, Gaussian kernel
density estimation with rule-of-thumb bandwidths, and empirical quantiles.
Everything here is deterministic given its inputs; the only randomness is
the seeded fold assignment.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import EmptyNeighborhood, OutOfRange, SingularDesign, ZeroDispersion

# Cross-fitting folds: a fixed rule, like the bandwidth and neighbour rules.
N_FOLDS = 5
# The least n the mean and the quantile accept: their first half
# (``split_halves``) then holds ceil(19/2) = 10 rows, two per fold.  The
# bound is a contract, kept so that the samples both methods accept or
# refuse stay the same.
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
        # own copies, so freezing them leaves the caller's arrays writable
        y = np.array(self.y, dtype=float)
        x = np.array(self.x, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        if y.ndim != 1 or x.ndim != 2:
            raise OutOfRange("y must be a vector and x a matrix")
        if y.shape[0] != x.shape[0]:
            raise OutOfRange(
                f"response length {y.shape[0]} != covariate rows {x.shape[0]}"
            )
        if y.size < 1 or x.shape[1] < 1:
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


def make_split_plan(n: int, seed: int) -> np.ndarray:
    """The fold id (int64, 0-based) of each row of 0..n-1, n >= 2 ``N_FOLDS``,
    for ``N_FOLDS`` folds of near-equal size.

    A seeded Fisher-Yates order is cut into contiguous blocks by
    ``np.array_split``, which makes the first ``n mod N_FOLDS`` folds one
    row larger.  Identical (n, seed) always reproduces the identical folds.
    """
    order = rng.fisher_yates(rng.substream(seed, rng.DOMAIN_SPLIT), n)
    folds = np.empty(n, dtype=np.int64)
    for fold_id, rows in enumerate(np.array_split(order, N_FOLDS)):
        folds[rows] = fold_id
    return folds


def split_halves(n: int) -> tuple[slice, slice]:
    """The half-sample split of rows 0..n-1: the first ceil(n/2) rows and the rest."""
    n_half = math.ceil(n / 2)
    return slice(0, n_half), slice(n_half, n)


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
    q75, q25 = _quartiles(columns)
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


def _quartiles(columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 75th and 25th percentiles along the last axis, bit for bit those of
    ``np.percentile``'s default linear rule, from one ``np.partition``.

    For n values and q in {0.75, 0.25}, the rule reads the order statistics
    a and b at floor(v) and the next index (the last, when n = 1) for the
    virtual index v = (n - 1) q, exact here, and with g = v - floor(v) takes
    a + (b - a) g, or b - (b - a)(1 - g) when g >= 0.5.
    """
    n = columns.shape[-1]
    v = (n - 1) * np.array([0.75, 0.25])
    below = np.floor(v).astype(np.intp)
    above = np.minimum(below + 1, n - 1)
    g = v - below
    ordered = np.partition(columns, np.unique(np.concatenate([below, above])), axis=-1)
    a, b = ordered[..., below], ordered[..., above]
    diff = b - a
    value = a + diff * g
    np.subtract(b, diff * (1 - g), out=value, where=g >= 0.5)
    return value[..., 0], value[..., 1]


def ols_fit(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares coefficients via the normal equations, from
    ``equilibrated_solve``: the intercept first, then one slope per column
    of ``x``, in one column of coefficients per column of the (n, r)
    response ``y``.
    """
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
    and L^-1 rhs come from one forward substitution on [I | rhs], the
    package's only solve.  ``rhs`` holds, per matrix, a block of right-hand-side
    columns that share its factor (r rows, one column or more).  A batch
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
    aug = np.zeros(batch + (r, r + rhs.shape[-1]))
    aug[..., :r] = np.eye(r)
    aug[..., r:] = rhs
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
    return passes, l_inv, sol[..., r:]


def equilibrated_solve(gram: np.ndarray, rhs: np.ndarray):
    """``cholesky_gate`` for one Gram matrix G of an uncentred design (OLS,
    linreg), which has no natural units: the gate sees D^-1/2 G D^-1/2 with
    D = diag(G), so rescaling a covariate column cannot move the decision.
    Returns G^-1 rhs and G^-1, both from the factor that passed, or None
    where G fails (a column of zeros leaves a zero on D).  ``rhs`` holds
    the right-hand sides as columns.
    """
    diag = gram.diagonal()
    if not (diag > 0.0).all():
        return None
    inv_root = 1.0 / np.sqrt(diag)
    passes, l_inv, z = cholesky_gate(gram * inv_root[:, None] * inv_root,
                                     rhs * inv_root[:, None])
    if not passes:
        return None
    m = l_inv * inv_root  # G^-1 = M'M
    return inv_root[:, None] * (l_inv.T @ z), m.T @ m


def default_neighbor_count(n_train: int) -> int:
    """Default k for k-NN regression, ceil(n^(4/5) / 4), clipped to [1, n]."""
    return min(max(1, math.ceil(n_train**0.8 / 4.0)), n_train)


class OlsLinearRegressor:
    def __init__(self, coef: np.ndarray):
        self.coef = coef

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Predictions at the rows of ``x``, one column per column of
        coefficients."""
        design = np.column_stack([np.ones(x.shape[0]), x])
        return design @ self.coef


class _Workspace(threading.local):
    """Scratch arrays for the kernel smoothers, one set per thread.

    ``take`` hands out a C-contiguous view, in any dtype, of a named byte
    buffer that grows to the largest request seen and is then reused, so
    the blocks of every later pass fault in no fresh pages.  Blocks are
    sized by ``BLOCK_BYTES``, so the buffers are too, whatever n is.  Every
    caller writes what it takes before reading it, and no public function
    returns workspace memory, so no result depends on an earlier call.

    Every kernel pass, k-NN, local-linear and the conditional KDE alike,
    draws its (queries x training) slabs from the same three roles, so a
    thread keeps three such slabs whichever kinds it runs:

    - ``"form"``, the block's kernel log-weights; local-linear then writes
      the block's moments over its spent log-weights;
    - ``"transform"``, their transform: the floored weights, or k-NN's
      partition copy;
    - ``"revisit"``, the rows a pass revisits: the pending floor rows, or
      k-NN's candidate mask and then its candidate differences.
    """

    def __init__(self):
        self._buffers = {}

    def take(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        nbytes = math.prod(shape) * np.dtype(dtype).itemsize
        buf = self._buffers.get(name)
        if buf is None or buf.size < nbytes:
            buf = np.empty(max(nbytes, BLOCK_BYTES), np.uint8)
            self._buffers[name] = buf
        return buf[:nbytes].view(dtype).reshape(shape)


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
    thread's workspace.  Within a block, ``_GaussianKernel`` at unit
    bandwidths gives -|q - t|^2 / 2 from one GEMM, clipped at 0, and a
    partial selection of a copy gives each row's k-th largest.  Every
    training point down to that value minus a small relative slack for the
    rounding is a candidate; the clip only raises a tiny negative distance
    toward its exact value, at least 0, so it only widens the set.  Each
    row's candidates, in ascending index order and padded at +inf to the
    block's widest row, are ranked by exact squared distance: by a fast
    sort, or by a stable sort in a block where some row has equal
    distances among its first k + 1.  Neighbour sets, their order and the
    predictions are therefore the same, bit for bit, as a stable argsort of
    all exact distances, in memory bounded by the block budget.

    The (n, r) response ``y_train`` gives r columns of predictions from one
    neighbour search.  Each response is kept as a contiguous row and averaged
    over the neighbours on its own, so every column equals its own
    one-column fit bit for bit.
    """

    # Candidate slack, relative to (|q|^2 + max |t|^2) / 2 about the training mean.
    # The bilinear form and the exact sum are each off by a few (p + 4) ulps
    # of that scale, so this covers both for any practical p while admitting
    # almost no extra candidates.
    _SLACK = 1e-9

    def __init__(self, x_train: np.ndarray, y_train: np.ndarray, k: int):
        self.x_train = x_train
        self.k = k
        self._y_rows = np.ascontiguousarray(y_train.T)
        self._kernel = _GaussianKernel(x_train, np.ones(x_train.shape[1]))
        # max |t|^2 / 2, read off the operand's -|t|^2 / 2 row
        self._half_max_sq_norm = -float(self._kernel._operand[-2].min())

    def predict(self, x: np.ndarray) -> np.ndarray:
        out = np.empty((self._y_rows.shape[0], x.shape[0]))
        for block in _query_blocks(x.shape[0], self.x_train.shape[0]):
            out[:, block] = self._y_rows.take(self._neighbors(x[block]), axis=1).mean(axis=-1)
        return out.T

    def _neighbors(self, xq: np.ndarray) -> np.ndarray:
        """Training indices of each query's k nearest points, nearest first."""
        (nq, p), n_train = xq.shape, self.x_train.shape[0]
        log_w = self._kernel.log_weights(xq, out=_WORKSPACE.take("form", (nq, n_train)))
        work = _WORKSPACE.take("transform", (nq, n_train))
        np.copyto(work, log_w)
        work.partition(n_train - self.k, axis=1)
        qc = xq - self._kernel.centre
        half_q_sq = 0.5 * (qc * qc).sum(axis=1)
        limit = work[:, n_train - self.k] - self._SLACK * (half_q_sq + self._half_max_sq_norm)
        within = _WORKSPACE.take("revisit", (nq, n_train), dtype=bool)
        np.greater_equal(log_w, limit[:, None], out=within)
        counts = np.count_nonzero(within, axis=1)
        # each row's candidates in ascending index order, padded to the widest
        # row; the padding ranks last at +inf
        filled = np.arange(counts.max()) < counts[:, None]
        candidates = np.zeros(filled.shape, dtype=np.intp)
        candidates[filled] = np.flatnonzero(within) % n_train
        # the mask is spent: its buffer takes the candidate differences
        diff = _WORKSPACE.take("revisit", candidates.shape + (p,))
        np.take(self.x_train, candidates, axis=0, out=diff, mode="clip")
        np.subtract(xq[:, None, :], diff, out=diff)
        diff *= diff
        d2 = diff.sum(axis=2)
        d2[~filled] = np.inf
        order = np.argsort(d2, axis=1)
        # equal distances may come out in any order; only a stable sort keeps
        # the lower training index first, and only ties among the first
        # k + 1 can move the neighbours or their order
        ranked = np.take_along_axis(d2, order[:, : self.k + 1], axis=1)
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
    The bandwidths must be positive and finite; at unit bandwidths, as
    k-NN uses it, the division is exact and the log-weights are
    -|q - t|^2 / 2 about the sample mean.

    The sample (n x p) and its bandwidths (p) may carry leading axes, one
    kernel per matrix of a stack; the queries then carry the same axes, and
    each matrix gets the GEMM, reductions and layout it would get alone.
    """

    def __init__(self, x_sample: np.ndarray, bandwidths: np.ndarray):
        self.bandwidths = bandwidths
        self.centre = x_sample.mean(axis=-2)
        self.scaled = (x_sample - self.centre[..., None, :]) / bandwidths[..., None, :]
        p = self.scaled.shape[-1]
        self._operand = np.empty(self.scaled.shape[:-2] + (p + 2, self.scaled.shape[-2]))
        self._operand[..., :p, :] = np.swapaxes(self.scaled, -1, -2)
        self._operand[..., p, :] = -0.5 * (self.scaled * self.scaled).sum(axis=-1)
        self._operand[..., p + 1, :] = -1.0

    def log_weights(self, xq: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Log-weights of a query block into ``out`` (queries x sample)."""
        p = xq.shape[-1]
        query = np.empty(xq.shape[:-1] + (p + 2,))
        a = query[..., :p]
        np.divide(xq - self.centre[..., None, :], self.bandwidths[..., None, :], out=a)
        query[..., p + 1] = 0.5 * (a * a).sum(axis=-1)
        query[..., p] = 1.0
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
    columns 1, Xc, the upper triangle of Xc Xc', then yc and Xc yc (yc the
    mean-centred response) for each response, written once per fit.  Each
    query's moments are then moved from the training mean to the query in closed form, giving
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

    ``y_train`` holds r responses as columns, (n x r), and ``predict``
    returns one column per response.  The weights, the floor pass, the Gram
    matrices and their ``cholesky_gate`` factors depend only on X, so the
    responses share them, and each adds p + 1 moment columns and one
    right-hand side.  A column's prediction matches its own one-column
    fit's to rounding: the wider moment GEMM and solve may sum in another
    order.

    A fold group is one fit: ``x_train`` (n x p), ``y_train`` (n x r) and
    the bandwidths (p) may carry a leading fold axis, and ``predict`` then takes
    one (queries x p) matrix per fold, all of the same size.  A block spans
    every fold and stays within ``BLOCK_BYTES``, so the folds share one floor
    pass, one Gram assembly and one ``cholesky_gate`` call, while each keeps
    its own log-weight and moment GEMMs.  Every step is per fold or per
    query, so a fold's predictions equal its own fit's bit for bit whenever
    its queries form the same blocks, as they do when the stack fits one.
    """

    MIN_EFFECTIVE_WEIGHT = 20.0
    MAX_INFLATIONS = 16
    # Relative slack on the start-level bound; it covers the rounding of the
    # exp and of the row sums, so no level that could pass is skipped.
    _SLACK = 1e-9

    def __init__(self, x_train: np.ndarray, y_train: np.ndarray, bandwidths: np.ndarray):
        self._kernel = _GaussianKernel(x_train, bandwidths)
        self.x_train = x_train
        self.y_train = y_train
        self.bandwidths = self._kernel.bandwidths
        xc = self._kernel.scaled
        n, p = xc.shape[-2:]
        self._upper = np.triu_indices(p)
        n_upper = self._upper[0].size
        # each response as a contiguous row, centred: solving on mean-centered
        # responses keeps the response level out of the local solve (constant
        # responses reproduce exactly)
        y_rows = np.ascontiguousarray(np.moveaxis(y_train, -1, -2))
        self._y_mean = np.mean(y_rows, axis=-1)
        y_centered = y_rows - self._y_mean[..., None]
        # columns 1 | Xc | Xc_j Xc_k for j <= k, row by row of the triangle,
        # then yc | Xc yc for each response
        design = np.empty(xc.shape[:-2] + (n, 1 + p + n_upper + y_rows.shape[-2] * (1 + p)))
        design[..., 0] = 1.0
        design[..., 1 : 1 + p] = xc
        start = 1 + p
        for j in range(p):
            np.multiply(xc[..., j : j + 1], xc[..., j:], out=design[..., start : start + p - j])
            start += p - j
        for j in range(y_rows.shape[-2]):
            design[..., start] = y_centered[..., j, :]
            np.multiply(xc, y_centered[..., j, :, None], out=design[..., start + 1 : start + 1 + p])
            start += 1 + p
        self._moment_design = design

    def predict(self, x: np.ndarray) -> np.ndarray:
        out = np.empty(x.shape[:-1] + self.y_train.shape[-1:])
        # a block's row holds one query's weights in every fold
        width = math.prod(x.shape[:-2]) * self.x_train.shape[-2]
        for block in _query_blocks(x.shape[-2], width):
            out[..., block, :], _ = self._predict_block(x[..., block, :])
        return out

    def _floored_weights(self, xq: np.ndarray) -> np.ndarray:
        """Kernel weights of a query block: row i is the kernel row at bandwidths
        h * 2^k for the first k whose row sum reaches ``MIN_EFFECTIVE_WEIGHT``,
        or k = ``MAX_INFLATIONS``.  Level k is exp(L * 4^-k) of the block's
        log-weights L; a row starts at the first level where n_train times its
        largest weight, exp(max(L) * 4^-k), can reach the floor.  The rows of
        every fold go through one pass.  The result is workspace memory,
        valid until the thread's next block.
        """
        n_train = self.x_train.shape[-2]
        shape = xq.shape[:-1] + (n_train,)
        log_w = _WORKSPACE.take("form", shape)
        w = _WORKSPACE.take("transform", shape)
        self._kernel.log_weights(xq, out=log_w)
        rows = log_w.reshape(-1, n_train)
        scales = np.ldexp(1.0, -2 * np.arange(self.MAX_INFLATIONS + 1))
        bound = n_train * np.exp(rows.max(axis=1)[:, None] * scales)
        admits = bound >= self.MIN_EFFECTIVE_WEIGHT * (1.0 - self._SLACK)
        level = np.where(admits.any(axis=1), admits.argmax(axis=1), self.MAX_INFLATIONS)
        # a row at level 0 would be multiplied by 1.0, exactly, so a block
        # whose rows all start there (most at p = 2) skips the pass; at
        # p = 10 nearly every row starts above it, and gathering and
        # scattering only those rows would cost three passes over the block
        # instead of this one
        if level.any():
            rows *= scales[level][:, None]
        np.exp(log_w, out=w)
        w_rows = w.reshape(-1, n_train)
        # every pending row moves up one level per step, from its start level
        pending = np.flatnonzero(
            (w_rows.sum(axis=1) < self.MIN_EFFECTIVE_WEIGHT) & (level < self.MAX_INFLATIONS)
        )
        for step in range(1, self.MAX_INFLATIONS + 1):
            if pending.size == 0:
                break
            w_new = _WORKSPACE.take("revisit", (pending.size, n_train))
            np.take(rows, pending, axis=0, out=w_new, mode="clip")
            w_new *= scales[step]
            np.exp(w_new, out=w_new)
            w_rows[pending] = w_new
            pending = pending[
                (w_new.sum(axis=1) < self.MIN_EFFECTIVE_WEIGHT)
                & (level[pending] + step < self.MAX_INFLATIONS)
            ]
        return w

    def _predict_block(self, xq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Predictions for one block of queries, one column per response, and
        which queries passed the condition gate."""
        p = xq.shape[-1]
        batch = xq.shape[:-1]
        rows, cols = self._upper
        w = self._floored_weights(xq)
        # the log-weights are spent once the weights are floored
        moments = _WORKSPACE.take("form", batch + (self._moment_design.shape[-1],))
        np.matmul(w, self._moment_design, out=moments)
        s0 = moments[..., 0]
        m1 = moments[..., 1 : 1 + p]
        m2 = moments[..., 1 + p : 1 + p + rows.size]
        responses = moments[..., 1 + p + rows.size :].reshape(batch + (-1, 1 + p))
        t0 = responses[..., 0]
        u1 = responses[..., 1:]
        # Move the moments from the training mean to the query point d, all
        # in bandwidth units: sum w (X - xq) = m1 - s0 d,
        # sum w (X - xq)(X - xq)' = M2 - m1 d' - d m1' + s0 d d',
        # sum w (X - xq) y = u1 - t0 d for each response.  Both triangles are
        # built alike, so the Gram matrix is exactly symmetric.
        d = (xq - self._kernel.centre[..., None, :]) / self.bandwidths[..., None, :]
        cross = m1[..., :, None] * d[..., None, :]
        gram = np.empty(batch + (p + 1, p + 1))
        gram[..., 0, 0] = s0
        gram[..., 0, 1:] = gram[..., 1:, 0] = m1 - s0[..., None] * d
        s2 = gram[..., 1:, 1:]
        s2[..., rows, cols] = m2
        s2[..., cols, rows] = m2
        s2 -= cross + np.swapaxes(cross, -1, -2)
        s2 += s0[..., None, None] * (d[..., :, None] * d[..., None, :])
        rhs = np.empty(batch + (p + 1, t0.shape[-1]))
        rhs[..., 0, :] = t0
        rhs[..., 1:, :] = np.swapaxes(u1 - t0[..., None] * d[..., None, :], -1, -2)
        ok, l_inv, z = cholesky_gate(gram, rhs)
        y_mean = np.broadcast_to(self._y_mean[..., None, :], t0.shape)
        out = np.empty(t0.shape)
        # the intercept, row 0 of G^-1 rhs = L^-T (L^-1 rhs): column 0 of L^-1 dotted with z
        out[ok] = np.einsum("qk,qkr->qr", l_inv[ok, :, 0], z[ok]) + y_mean[ok]
        if not ok.all():
            bad_s0 = s0[~ok, None]
            local_mean = np.where(bad_s0 > 0, t0[~ok] / np.where(bad_s0 > 0, bad_s0, 1.0), 0.0)
            out[~ok] = local_mean + y_mean[~ok]
        return out, ok


def fit_conditional_mean(
    x: np.ndarray, z: np.ndarray, kind: str
) -> OlsLinearRegressor | KnnRegressor | LocalLinearRegressor:
    """Fit one regressor from the menu of the (n, r) response columns ``z``
    on the (n, p) covariates ``x``; ``predict`` on the result is pure and
    deterministic and returns one column per response.  For local-linear,
    ``x`` and ``z`` may carry a leading fold axis, one training sample per
    fold: one stacked fit, whose ``predict`` takes one query matrix per fold.

    Smoothing follows fixed rules: k-NN uses k = ceil(n^(4/5)/4), local-linear
    the rule-of-thumb bandwidth per covariate dimension.
    """
    if kind not in REGRESSOR_KINDS:
        raise OutOfRange(f"unknown regressor kind {kind!r}")
    if kind == "local-linear":
        return LocalLinearRegressor(x, z, silverman_bandwidth(x))
    if kind == "ols-linear":
        return OlsLinearRegressor(ols_fit(x, z))
    return KnnRegressor(x, z, default_neighbor_count(x.shape[0]))


def _fold_groups(fold_sizes: np.ndarray, kind: str) -> list[np.ndarray]:
    """The folds of each fit.  Local-linear fits consecutive folds of one
    size together, as many as keep their (queries x training) slab of
    doubles within ``BLOCK_BYTES``, or one; every other kind fits fold by
    fold."""
    n = int(fold_sizes.sum())
    groups = []
    for size in np.unique(fold_sizes):
        folds = np.flatnonzero(fold_sizes == size)
        per_fit = 1 if kind != "local-linear" else max(
            1, BLOCK_BYTES // (8 * int(size) * (n - int(size))))
        groups += [folds[i : i + per_fit] for i in range(0, folds.size, per_fit)]
    return groups


def crossfit_predict(x: np.ndarray, z: np.ndarray, kind: str, seed: int) -> np.ndarray:
    """Cross-fitted predictions of the (n, r) response columns ``z`` from
    the (n, p) covariates ``x`` at every observation: one column per
    response from one pass, each matching its own one-column cross-fit (bit
    for bit for k-NN, to rounding for local-linear and OLS).

    The folds are ``make_split_plan(n, seed)``.  Entry i comes from the
    regressor trained on the complement of i's fold, so it never depends on
    observation i itself.  The folds are fitted in the groups of
    ``_fold_groups``: one stacked local-linear fit per group, whose
    predictions equal fold-by-fold fits bit for bit.
    """
    folds = make_split_plan(x.shape[0], seed)
    predictions = np.empty(z.shape)
    for group in _fold_groups(np.bincount(folds, minlength=N_FOLDS), kind):
        member = folds == group[:, None]
        test = np.nonzero(member)[1].reshape(group.size, -1)
        train = np.nonzero(~member)[1].reshape(group.size, -1)
        if group.size == 1:  # a fold alone is a plain fit
            test, train = test[0], train[0]
        regressor = fit_conditional_mean(x[train], z[train], kind)
        predictions[test] = regressor.predict(x[test])
    return predictions


def empirical_quantile(y: np.ndarray, tau: float) -> float:
    """Order statistic Y_(ceil(n*tau)) of a finite, nonempty 1-d sample."""
    if not 0.0 < tau < 1.0:
        raise OutOfRange(f"tau must be in (0, 1), got {tau}")
    k = math.ceil(y.size * tau)
    return float(np.partition(y, k - 1)[k - 1])


def silverman_bandwidth(sample: np.ndarray) -> float | np.ndarray:
    """Rule-of-thumb bandwidth 1.06 * min(sd, IQR/1.34) * n^(-1/5).

    A vector gives one float; a matrix gives one bandwidth per column, from
    one pass over its rows (each column reduced as a vector would be), and a
    stack of matrices with a leading fold axis one row of bandwidths per
    matrix, each equal bit for bit to that matrix's own.  The sample holds
    at least 2 rows, and its standard deviation uses divisor n-1.  A zero
    IQR with positive dispersion falls back to the standard deviation alone
    (the literal min would return a zero bandwidth).
    """
    columns = np.ascontiguousarray(
        sample[None] if sample.ndim == 1 else np.swapaxes(sample, -1, -2))
    sd = np.std(columns, axis=-1, ddof=1)
    q75, q25 = _quartiles(columns)
    iqr = q75 - q25
    if np.any((sd == 0.0) & (iqr == 0.0)):
        raise ZeroDispersion("sample has zero dispersion")
    spread = np.where(iqr > 0.0, np.minimum(sd, iqr / 1.34), sd)
    bands = 1.06 * spread * columns.shape[-1] ** (-0.2)
    return float(bands[0]) if sample.ndim == 1 else bands


def kde_eval(sample: np.ndarray, bandwidth: float, point: float) -> float:
    """Gaussian kernel density estimate (nh)^-1 sum K((point - s_i)/h) of a
    nonempty 1-d sample at bandwidth h > 0."""
    z = (point - sample) / bandwidth
    return float(np.mean(np.exp(-0.5 * z * z)) / (bandwidth * _SQRT_2PI))


def cond_kde_profile(x_sample: np.ndarray, y_sample: np.ndarray, x_bandwidths: np.ndarray,
                     y_bandwidth: float, x_queries: np.ndarray, y_point: float) -> np.ndarray:
    """Vectorized conditional density at one y value across many x queries:
    the (n, p) sample ``x_sample`` with its n responses ``y_sample``, at the
    (m, p) ``x_queries``.  The bandwidths must be positive and finite."""
    zy = (y_point - y_sample) / y_bandwidth
    y_kernel = np.exp(-0.5 * zy * zy) / (y_bandwidth * _SQRT_2PI)
    kernel = _GaussianKernel(x_sample, x_bandwidths)
    out = np.empty(x_queries.shape[0])
    for block in _query_blocks(x_queries.shape[0], x_sample.shape[0]):
        xq = x_queries[block]
        shape = (xq.shape[0], x_sample.shape[0])
        w = kernel.log_weights(xq, out=_WORKSPACE.take("form", shape))
        np.exp(w, out=w)
        sw = w.sum(axis=1)
        # the expanded bilinear form rounds the log-weights of rows far from the
        # centre in bandwidth units (a tight cluster beside a distant row), their
        # own included, far below 0, so a query at a sample point can lose them all
        if np.any(sw <= 0.0):
            raise EmptyNeighborhood("all covariate kernel weights underflowed to zero at a query")
        out[block] = (w @ y_kernel) / sw
    return out
