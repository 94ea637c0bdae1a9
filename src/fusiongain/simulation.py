"""Synthetic data generation, closed-form truth values, and the Monte Carlo runner.

The data generating process draws covariates (S, W) from a standard bivariate
normal with correlation rho and sets Y = b (S + W) + eps with independent
standard normal noise.  All three assessment targets have closed-form truth
values under this process, so replicated assessments can be scored by
absolute error and interval coverage.  Every replication is keyed by (run
seed, replication index) through counter-based streams, which makes cells
and replications reproducible in isolation and bit-identical under any
degree of parallelism.  ``METHODS`` names, for each method, its estimator
and the settings that estimator reads.
"""

from __future__ import annotations

import inspect
import math
import os
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from . import rng
from .core import UtilityEstimate, check_settings, normal_quantile
from .errors import FusionGainError, OutOfRange
from .linreg_utility import assess_linreg
from .mean_utility import assess_mean
from .nuisance import Dataset
from .quantile_utility import assess_quantile

CSV_COLUMNS = ("method", "b", "n", "extra", "reps", "seed", "MAE", "SDAE", "AL", "CR")


@dataclass(frozen=True)
class DgpConfig:
    b: float
    rho: float = 0.2
    n: int = 1000
    nu: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if not abs(self.rho) < 1.0:
            raise OutOfRange(f"|rho| must be < 1, got {self.rho}")
        if self.n < 1:
            raise OutOfRange("n must be >= 1")
        check_settings(nu=self.nu)


# One more row than the DGP's two covariates: at n <= 2 every linreg fit is
# exact and its interval has zero width.
MIN_LINREG_N = 3


def generate_dgp(cfg: DgpConfig, stream: np.random.Generator | None = None) -> Dataset:
    """Draw one dataset from the process Y = b (S + W) + eps.

    Normals come from the inverse CDF of the stream's uniforms, three columns
    per observation in the fixed order (S driver, W driver, noise); W is
    built from the first two by Cholesky so that corr(S, W) = rho.
    """
    gen = stream if stream is not None else rng.substream(cfg.seed, rng.DOMAIN_DGP)
    z = rng.standard_normals(gen, (cfg.n, 3))
    s = z[:, 0]
    w = cfg.rho * s + math.sqrt(1.0 - cfg.rho**2) * z[:, 1]
    y = cfg.b * (s + w) + z[:, 2]
    return Dataset(y, np.column_stack([s, w]), ("S", "W"))


def true_theta_mean(b: float, rho: float, nu: float) -> float:
    """(1 - nu) / (2 b^2 (1 + rho) + 1) + nu."""
    if not abs(rho) < 1.0:
        raise OutOfRange(f"|rho| must be < 1, got {rho}")
    return (1.0 - nu) / (2.0 * b * b * (1.0 + rho) + 1.0) + nu


def true_theta_linreg(b: float, rho: float, nu: float) -> float:
    """1 - (1 - nu)(1 - rho^2) / (2 (1 + b^2 (1 - rho^2)))."""
    if not abs(rho) < 1.0:
        raise OutOfRange(f"|rho| must be < 1, got {rho}")
    one_minus_rho_sq = 1.0 - rho * rho
    return 1.0 - (1.0 - nu) * one_minus_rho_sq / (2.0 * (1.0 + b * b * one_minus_rho_sq))


@cache
def _legendre_rule() -> tuple[tuple[float, ...], tuple[float, ...]]:
    """60 Gauss-Legendre nodes and weights on [0, 1], computed once.

    Owen's T integrand below is analytic with poles at x = +-i, at least one
    interval length from [0, a] when a <= 1, so 60 nodes leave a quadrature
    error far below rounding.
    """
    nodes, weights = np.polynomial.legendre.leggauss(60)
    return tuple(((nodes + 1.0) / 2.0).tolist()), tuple((weights / 2.0).tolist())


def owens_t(h: float, a: float) -> float:
    """Owen's T function for 0 <= a <= 1, by Gauss-Legendre quadrature of
    T(h, a) = (1/2 pi) int_0^a exp(-h^2 (1 + x^2) / 2) / (1 + x^2) dx.

    For |h| <= 2.33 (tau in [0.01, 0.99]) it is within 1.1e-15 relative of T.
    """
    nodes, weights = _legendre_rule()
    half_h2 = 0.5 * h * h
    terms = []
    for t, w in zip(nodes, weights):
        q = 1.0 + (a * t) ** 2
        terms.append(w * math.exp(-half_h2 * q) / q)
    return a * math.fsum(terms) / (2.0 * math.pi)


def true_theta_quantile(b: float, rho: float, nu: float, tau: float) -> float:
    """Truth value for the quantile target, in closed form.

    The signal b(S + W) is normal with variance s^2 = 2 b^2 (1 + rho), so
    the defining expectation E[Phi(sd_Y u_tau - signal)^2] is the bivariate
    normal probability Phi_2(u_tau, u_tau; s^2 / (1 + s^2)).  Owen's (1956)
    identity Phi_2(h, h; r) = Phi(h) - 2 T(h, sqrt((1 - r) / (1 + r))) then
    leaves tau - E = 2 T(u_tau, 1 / sqrt(1 + 2 s^2)), with T Owen's T
    function; the nu-free core is (tau - E) / (tau (1 - tau)).
    """
    if not 0.0 < tau < 1.0:
        raise OutOfRange(f"tau must be in (0, 1), got {tau}")
    if not abs(rho) < 1.0:
        raise OutOfRange(f"|rho| must be < 1, got {rho}")
    slope = 1.0 / math.sqrt(1.0 + 4.0 * b * b * (1.0 + rho))
    # 2 T(h, 1) = Phi(h) (1 - Phi(h)) exactly, but owens_t rounds to either
    # side of it: pin the no-signal core at 1, and keep every core at most 1
    core = 1.0
    if slope < 1.0:
        two_t = 2.0 * owens_t(normal_quantile(tau), slope)
        core = min(two_t / (tau * (1.0 - tau)), 1.0)
    return (1.0 - nu) * core + nu


@dataclass(frozen=True)
class Method:
    """One assessment method: its estimator, the settings that estimator reads
    besides nu and alpha, its truth under the DGP and its table label.

    ``truth(b, rho, nu, tau)`` and ``extra(tau)`` ignore what the method
    does not use.
    """

    assess: Callable[..., UtilityEstimate]
    settings: tuple[str, ...]
    truth: Callable[[float, float, float, float], float]
    extra: Callable[[float], str]

    def run(self, data: Dataset, *, nu: float, alpha: float, **settings) -> UtilityEstimate:
        """``assess`` with the named settings that are not None; a setting the
        method does not read is dropped, and a None one takes its default."""
        chosen = {k: settings[k] for k in self.settings if settings.get(k) is not None}
        return self.assess(data, nu=nu, alpha=alpha, **chosen)


# The single dispatch point on the method name, for the CLI and the harness.
METHODS = {
    "mean-linear": Method(
        partial(assess_mean, regressor="ols-linear"),
        ("seed",),
        lambda b, rho, nu, tau: true_theta_mean(b, rho, nu),
        lambda tau: "linear",
    ),
    "mean-conditional": Method(
        partial(assess_mean, regressor="local-linear"),
        ("seed", "regressor"),
        lambda b, rho, nu, tau: true_theta_mean(b, rho, nu),
        lambda tau: "conditional-mean",
    ),
    "quantile": Method(
        assess_quantile,
        ("seed", "tau", "regressor"),
        true_theta_quantile,
        lambda tau: repr(float(tau)),
    ),
    "linreg": Method(
        assess_linreg,
        ("s_index",),
        lambda b, rho, nu, tau: true_theta_linreg(b, rho, nu),
        lambda tau: "",
    ),
}


@dataclass(frozen=True)
class MonteCarloCell:
    """One table cell: an assessment method applied to one DGP configuration."""

    method: str
    dgp: DgpConfig
    tau: float = inspect.signature(assess_quantile).parameters["tau"].default
    alpha: float = 0.95

    def __post_init__(self):
        if self.method not in METHODS:
            raise OutOfRange(f"method must be one of {tuple(METHODS)}, got {self.method!r}")

    @property
    def extra(self) -> str:
        return METHODS[self.method].extra(self.tau)


def true_theta(cell: MonteCarloCell) -> float:
    d = cell.dgp
    return METHODS[cell.method].truth(d.b, d.rho, d.nu, cell.tau)


def _run_replication(task: tuple[MonteCarloCell, int, float, int]):
    """One scored replication of (cell, seed, theta0, rep); returns
    (abs_err, ci_length, covered) or an error string."""
    cell, seed, theta0, rep = task
    gen = rng.substream(rng.mix64(seed, rep), rng.DOMAIN_DGP)
    try:
        data = generate_dgp(cell.dgp, stream=gen)
        assess_seed = int(gen.integers(0, 1 << 63))
        estimate = METHODS[cell.method].run(
            data,
            nu=cell.dgp.nu,
            alpha=cell.alpha,
            seed=assess_seed,
            tau=cell.tau,
        )
        return (
            abs(estimate.theta_hat - theta0),
            estimate.ci.width,
            estimate.ci.contains(theta0),
        )
    except FusionGainError as err:
        return f"{type(err).__name__}: {err}"


@dataclass(frozen=True)
class CellResult:
    """Summary of one cell: mean/SD of absolute errors, average length, coverage."""

    method: str
    b: float
    n: int
    extra: str
    reps: int
    seed: int
    mae: float
    sdae: float
    al: float
    cr: float
    n_failed: int = 0

    @property
    def flagged(self) -> bool:
        return self.n_failed > 0.01 * self.reps


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS keeps one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_monte_carlo(
    table: Sequence[tuple[MonteCarloCell, int]], reps: int, workers: int = 1
) -> list[CellResult]:
    """Run and score ``reps`` seeded replications of every (cell, seed) pair.

    Returns one result per pair, in table order.  Replication r of a cell
    draws its data from the stream keyed by (seed, r), so each result is a
    pure function of (cell, reps, seed) no matter how many workers execute
    it or which cells share the table.  The truth value is computed once per
    cell.  The (cell, replication) tasks of the table, in the order of the
    serial loop, are dealt into w = min(workers, tasks in the table, usable
    CPUs) shares: task i goes to share i mod w, so every cell is split
    evenly and none waits for another.  This process runs share 0; each
    other share runs in one child process, started with the platform's
    default start method, which sends its outcomes back over a pipe.  The
    outcomes are put back in task order and sliced into cells; with w = 1
    no child starts.  If any share raises, the children still running are
    terminated, every child is joined, and the exception reaches the caller
    with its own type.  Failed replications are counted, never silently
    dropped; a cell with more than 1% failures is flagged.  Once every task
    has run, the first cell in table order whose replications all failed
    raises.
    """
    if reps < 1:
        raise OutOfRange("reps must be >= 1")
    thetas = [true_theta(cell) for cell, _ in table]
    tasks = [(cell, seed, theta0, rep)
             for (cell, seed), theta0 in zip(table, thetas) for rep in range(reps)]
    shares = min(workers, len(tasks), _usable_cpus())
    outcomes: list = [None] * len(tasks)
    children = []
    try:
        for k in range(1, shares):
            children.append(_start_share(tasks[k::shares]))
        outcomes[0::shares] = [_run_replication(task) for task in tasks[0::shares]]
        for k, (child, receiver) in enumerate(children, 1):
            outcomes[k::shares] = _receive(child, receiver)
    except BaseException:
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, receiver in children:
            child.join()
            receiver.close()
    return [
        _score(cell, reps, seed, outcomes[i * reps:(i + 1) * reps])
        for i, (cell, seed) in enumerate(table)
    ]


class _ChildTraceback(Exception):
    """The formatted traceback of an exception raised in a child process."""


def _run_share(share: list, sender) -> None:
    """Child process body: run one share of the tasks and send back
    (True, outcomes), or (False, (exception, traceback text))."""
    try:
        message = (True, [_run_replication(task) for task in share])
    except Exception as err:
        import traceback

        message = (False, (err, traceback.format_exc()))
    sender.send(message)
    sender.close()


def _start_share(share: list):
    """Start one child running ``share``; return it and the pipe end its
    outcomes arrive on."""
    # multiprocessing is imported only where a child starts, so assess never
    # loads it
    import multiprocessing

    receiver, sender = multiprocessing.Pipe(duplex=False)
    child = multiprocessing.Process(target=_run_share, args=(share, sender))
    try:
        child.start()
    finally:
        # the child holds the only sending end, so its exit ends the pipe
        sender.close()
    return child, receiver


def _receive(child, receiver) -> list:
    """The outcomes a child sent, or the exception its share raised."""
    try:
        ok, payload = receiver.recv()
    except EOFError:
        child.join()
        raise ChildProcessError(
            f"a simulate child process exited with code {child.exitcode} "
            "before sending its outcomes"
        ) from None
    if not ok:
        err, trace = payload
        raise err from _ChildTraceback(trace)
    return payload


def _score(cell: MonteCarloCell, reps: int, seed: int, outcomes: list) -> CellResult:
    """Summarise one cell's replication outcomes."""
    failures = [o for o in outcomes if isinstance(o, str)]
    scored = [o for o in outcomes if not isinstance(o, str)]
    if not scored:
        raise FusionGainError(
            f"all {reps} replications failed; first error: {failures[0]}"
        )
    abs_errors = np.array([o[0] for o in scored])
    lengths = np.array([o[1] for o in scored])
    covered = np.array([o[2] for o in scored], dtype=float)
    return CellResult(
        method=cell.method,
        b=cell.dgp.b,
        n=cell.dgp.n,
        extra=cell.extra,
        reps=reps,
        seed=seed,
        mae=float(np.mean(abs_errors)),
        sdae=float(np.std(abs_errors)),
        al=float(np.mean(lengths)),
        cr=float(np.mean(covered)),
        n_failed=len(failures),
    )


def cell_seed(master_seed: int, cell: MonteCarloCell) -> int:
    """Derive an independent per-cell seed from the master seed and cell identity."""
    b_bits = int(np.float64(cell.dgp.b).view(np.uint64))
    return rng.mix64(
        master_seed,
        rng.hash_str(cell.method),
        b_bits,
        cell.dgp.n,
        rng.hash_str(cell.extra),
    )


@dataclass(frozen=True)
class SimulationReport:
    rows: tuple[CellResult, ...]

    def to_csv(self) -> str:
        lines = [",".join(CSV_COLUMNS)]
        for r in self.rows:
            lines.append(
                ",".join(
                    [
                        r.method,
                        _fmt(r.b),
                        str(r.n),
                        r.extra,
                        str(r.reps),
                        str(r.seed),
                        _fmt(r.mae),
                        _fmt(r.sdae),
                        _fmt(r.al),
                        _fmt(r.cr),
                    ]
                )
            )
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        """Aligned table with MAE/SDAE/AL/CR multiplied by 100, four decimals."""
        header = (
            f"{'method':<17}{'b':>6}{'n':>7}{'extra':>18}{'reps':>6}"
            f"{'MAE':>10}{'SDAE':>10}{'AL':>10}{'CR':>10}"
        )
        lines = [header, "-" * len(header)]
        for r in self.rows:
            lines.append(
                f"{r.method:<17}{r.b:>6g}{r.n:>7d}{r.extra:>18}{r.reps:>6d}"
                f"{100 * r.mae:>10.4f}{100 * r.sdae:>10.4f}"
                f"{100 * r.al:>10.4f}{100 * r.cr:>10.4f}"
                + ("  [flagged]" if r.flagged else "")
            )
        return "\n".join(lines) + "\n"


def _fmt(x: float) -> str:
    return repr(float(x))
