"""Command-line front end.

Two subcommands: ``assess`` runs one utility assessment on a CSV dataset,
``simulate`` reproduces Monte Carlo summary tables over a (b, n) grid.  All
randomness flows from --seed; repeated invocations with identical flags
produce identical output, byte for byte.  Errors are written to stderr as a
single JSON line with the error class name as machine-readable code; a stdout
closed by its reader is an :class:`IoError` too.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import math
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from .core import UtilityEstimate, check_settings, relative_utility
from .errors import (
    EmptyData,
    FusionGainError,
    IoError,
    OutOfRange,
    ParseError,
    UsageError,
)
from .nuisance import MIN_SPLIT_N, REGRESSOR_KINDS, Dataset
from .quantile_utility import assess_quantile
from .simulation import (
    DgpConfig,
    METHODS,
    MIN_LINREG_N,
    MonteCarloCell,
    cell_seed,
    run_monte_carlo,
    simulation_csv,
    simulation_text,
)


def parse_csv(path: str, response: str | None = None) -> Dataset:
    """Read a header + numeric rows CSV into a Dataset.

    One column (``response``, default the first) becomes y; the remaining
    columns become x in file order.  Header names must be distinct and
    non-empty.  A data cell is a finite ASCII decimal or exponent number,
    optionally padded with whitespace and quoted with ``"``; blank lines are
    skipped.  Any other cell fails the parse, with the offending file lines
    listed.  A leading UTF-8 byte-order mark is dropped.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = [name.strip() for name in next((row for row in reader if row), [])]
            if not header:
                raise EmptyData(f"{path} is empty")
            response_idx = _response_index(path, header, response)
            try:
                with warnings.catch_warnings():
                    # an empty body is reported as EmptyData below
                    warnings.simplefilter("ignore", UserWarning)
                    table = np.loadtxt(fh, delimiter=",", comments=None, quotechar='"',
                                       ndmin=2, dtype=float)
            except UnicodeDecodeError:  # a ValueError, but reported below
                raise
            except ValueError:
                table = None
    except OSError as err:
        raise IoError(f"cannot read {path}: {err}") from err
    except UnicodeDecodeError:
        raise ParseError(f"{path} is not UTF-8: {_utf8_error(path)}") from None
    if table is not None and table.shape[0] == 0:
        raise EmptyData(f"{path} has a header but no data rows")
    if table is None or table.shape[1] != len(header) or not np.isfinite(table).all():
        bad = _bad_cells(path, header)
        listing = ", ".join(f"row {line} (column {col})" for line, col in bad[:20])
        more = "" if len(bad) <= 20 else f" and {len(bad) - 20} more"
        raise ParseError(
            f"missing or non-numeric cells: {listing}{more}", locations=bad
        )

    y = table[:, response_idx]
    x = np.delete(table, response_idx, axis=1)
    names = tuple(name for j, name in enumerate(header) if j != response_idx)
    return Dataset(y, x, names)


def _response_index(path: str, header: list[str], response: str | None) -> int:
    """Validate the header names; return the column index of the response."""
    if "" in header:
        raise ParseError(f"empty column name at position {header.index('') + 1} in {header}")
    repeated = sorted({name for name in header if header.count(name) > 1})
    if repeated:
        raise ParseError(f"duplicate column names {repeated} in header {header}")
    response_name = response if response is not None else header[0]
    if response_name not in header:
        raise ParseError(f"response column {response_name!r} not in header {header}")
    if len(header) < 2:
        raise EmptyData(f"{path} needs at least one covariate column besides the response")
    return header.index(response_name)


def _cell_ok(cell: str) -> bool:
    """Whether ``np.loadtxt`` parses ``cell`` (already unquoted) to a finite float.

    numpy strips Unicode whitespace and then hands the ASCII text to the same
    correctly rounded parser as ``float()``, but without ``float()``'s
    underscore and non-ASCII digit extensions.
    """
    text = cell.strip()
    if not text.isascii() or "_" in text:
        return False
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _bad_cells(path: str, header: list[str]) -> list[tuple[int, str]]:
    """(file line, column name or ``<row>``) of every cell ``parse_csv`` rejects."""
    bad: list[tuple[int, str]] = []
    with open(path, encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        next(row for row in reader if row)
        line_no = reader.line_num + 1
        for row in reader:
            if len(row) != len(header):
                if row:
                    bad.append((line_no, "<row>"))
            else:
                bad.extend((line_no, name) for name, cell in zip(header, row)
                           if not _cell_ok(cell))
            line_no = reader.line_num + 1
    return bad


def _utf8_error(path: str) -> str:
    """Where the first byte that is not UTF-8 sits in ``path``."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as err:
        line = data.count(b"\n", 0, err.start) + 1
        return f"invalid byte 0x{data[err.start]:02x} at byte offset {err.start} (line {line})"
    return "the file changed while it was read"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures through the JSON error path
        raise UsageError(message)


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _float(text: str) -> float:
    """A float flag's value, with -0 read as 0: the sign of a zero would
    reach the printed settings and the cell seeds, and nothing else."""
    return float(text) + 0.0


def _float_list(text: str) -> list[float]:
    return [_float(tok) for tok in text.split(",") if tok.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fusiongain", description=__doc__)
    defaults = {k: p.default for k, p in inspect.signature(assess_quantile).parameters.items()}
    sub = parser.add_subparsers(dest="command", required=True)

    assess = sub.add_parser("assess", help="assess one dataset")
    assess.add_argument("--method", required=True, choices=METHODS)
    assess.add_argument("--input", required=True, help="CSV file with a header row")
    assess.add_argument("--nu", required=True, type=_float,
                        help="n / (n + N) for the contemplated external sample size N")
    assess.add_argument("--tau", type=_float, default=None,
                        help=f"quantile level for method quantile (default {defaults['tau']})")
    assess.add_argument("--s-column", default=None,
                        help="designated covariate column for method linreg")
    assess.add_argument("--response", default=None,
                        help="response column name (default: first column)")
    assess.add_argument("--alpha", type=_float, default=0.95)
    assess.add_argument("--seed", type=int, default=0)
    assess.add_argument("--relative", action="store_true",
                        help="also report utility relative to direct response data")
    assess.add_argument("--format", choices=("json", "csv", "text"), default="text")
    assess.add_argument("--regressor", choices=REGRESSOR_KINDS, default=None,
                        help="nuisance regressor for mean-conditional and quantile "
                             f"(default {defaults['regressor']})")
    assess.add_argument("--center", action="store_true",
                        help="subtract covariate column means before method linreg")

    simulate = sub.add_parser("simulate", help="reproduce Monte Carlo tables")
    simulate.add_argument("--method", required=True, choices=METHODS)
    simulate.add_argument("--b", required=True, type=_float_list,
                          help="comma-separated signal strengths")
    simulate.add_argument("--n", required=True, type=_int_list,
                          help="comma-separated sample sizes")
    simulate.add_argument("--tau", type=_float_list, default=None,
                          help="comma-separated quantile levels for method quantile "
                               f"(default {defaults['tau']})")
    simulate.add_argument("--reps", required=True, type=int)
    simulate.add_argument("--seed", required=True, type=int)
    simulate.add_argument("--out", required=True, help="output directory")
    simulate.add_argument("--nu", type=_float, default=0.5)
    simulate.add_argument("--rho", type=_float, default=0.2)
    simulate.add_argument("--alpha", type=_float, default=0.95)
    simulate.add_argument("--workers", type=int, default=1)
    return parser


def _estimate_payload(estimate: UtilityEstimate, seed: int, with_relative: bool) -> dict:
    payload = {
        "method": estimate.method,
        "n": estimate.n,
        "nu": estimate.nu,
        "alpha": estimate.alpha,
        "seed": seed,
        "theta_hat_raw": estimate.theta_hat_raw,
        "theta_hat": estimate.theta_hat,
        "theta_tilde_raw": estimate.theta_tilde_raw,
        "gamma_hat": estimate.gamma_hat,
        "ci_raw": {"lo": estimate.ci_raw.lo, "hi": estimate.ci_raw.hi},
        "ci": {"lo": estimate.ci.lo, "hi": estimate.ci.hi},
    }
    if with_relative:
        rel = relative_utility(estimate)
        payload["relative"] = {
            "point": rel.point,
            "ci": {"lo": rel.ci.lo, "hi": rel.ci.hi},
        }
    return payload


def _flatten(payload: dict, prefix: str = "") -> dict:
    flat = {}
    for key, value in payload.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{name}_"))
        else:
            flat[name] = value
    return flat


def _print_payload(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    flat = _flatten(payload)
    if fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(flat.keys())
        writer.writerow(["" if v is None else repr(v) if isinstance(v, float) else v
                         for v in flat.values()])
        return
    width = max(len(k) for k in flat)
    for key, value in flat.items():
        print(f"{key:<{width}}  {value}")


def _resolve_s_index(data: Dataset, name: str | None) -> int | None:
    if name is None:
        return None
    if data.column_names is None or name not in data.column_names:
        raise UsageError(f"--s-column {name!r} not among covariates {data.column_names}")
    return data.column_names.index(name)


# Flags that only some methods read: flag -> the Method setting it feeds.
# --center prepares the design for the one method that reads s_index.
_FLAG_SETTINGS = {
    "--tau": "tau",
    "--regressor": "regressor",
    "--s-column": "s_index",
    "--center": "s_index",
}


def _check_flags(args) -> None:
    """Reject out-of-range settings, and flags the method would ignore, before
    any data is read or replication run."""
    settings = METHODS[args.method].settings
    for flag, setting in _FLAG_SETTINGS.items():
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if value is not None and value is not False and setting not in settings:
            methods = [m for m, method in METHODS.items() if setting in method.settings]
            raise UsageError(
                f"{flag} applies only to --method {' or '.join(methods)}, not {args.method}"
            )
    if args.method == "mean-conditional" and getattr(args, "regressor", None) == "ols-linear":
        raise UsageError("--regressor ols-linear with --method mean-conditional "
                         "is --method mean-linear")
    try:
        check_settings(nu=args.nu, alpha=args.alpha)
    except OutOfRange as err:  # "nu must be ..." becomes "--nu must be ..."
        raise UsageError(f"--{err}") from None
    taus = args.tau if isinstance(args.tau, list) else [args.tau]
    if not all(0.0 < tau < 1.0 for tau in taus if tau is not None):
        raise UsageError(f"--tau must be in (0, 1), got {args.tau}")
    if args.command == "simulate":
        grid = (("--b", args.b), ("--n", args.n), ("--tau", args.tau))
        for flag, values in grid:
            if values == []:
                raise UsageError(f"{flag} needs at least one value")
        if not all(math.isfinite(b) for b in args.b):
            raise UsageError(f"--b must be finite, got {args.b}")
        if not abs(args.rho) < 1.0:
            raise UsageError(f"--rho must be in (-1, 1), got {args.rho}")
        # the mean and the quantile share the half-sample minimum;
        # linreg needs more rows than the DGP has covariates
        min_n = MIN_LINREG_N if args.method == "linreg" else MIN_SPLIT_N
        if min(args.n) < min_n:
            raise UsageError(f"--n must be >= {min_n} for --method {args.method}, got {args.n}")
        if args.reps < 1:
            raise UsageError(f"--reps must be >= 1, got {args.reps}")
        if args.workers < 1:
            raise UsageError(f"--workers must be >= 1, got {args.workers}")
        # a repeated value would run the same cell, with the same seed, twice
        for flag, values in grid:
            if values is not None and len({float(v) for v in values}) < len(values):
                raise UsageError(f"{flag} repeats a value, got {values}")


def _run_assess(args) -> int:
    data = parse_csv(args.input, response=args.response)
    s_index = _resolve_s_index(data, args.s_column)
    if args.center:
        data = Dataset(data.y, data.x - data.x.mean(axis=0), data.column_names)
    estimate = METHODS[args.method].run(
        data,
        nu=args.nu,
        alpha=args.alpha,
        seed=args.seed,
        tau=args.tau,
        regressor=args.regressor,
        s_index=s_index,
    )
    _print_payload(_estimate_payload(estimate, args.seed, args.relative), args.format)
    return 0


def _run_simulate(args) -> int:
    cells = []
    for b in args.b:
        for n in args.n:
            for tau in args.tau or [MonteCarloCell.tau]:
                dgp = DgpConfig(b=b, rho=args.rho, n=n, nu=args.nu)
                cells.append(MonteCarloCell(method=args.method, dgp=dgp, tau=tau,
                                            alpha=args.alpha))
    table = [(cell, cell_seed(args.seed, cell)) for cell in cells]
    rows = run_monte_carlo(table, args.reps, workers=args.workers)
    text = simulation_text(rows)
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "simulation.csv").write_text(simulation_csv(rows), encoding="utf-8")
        (out_dir / "simulation.txt").write_text(text, encoding="utf-8")
    except OSError as err:
        raise IoError(f"cannot write to {out_dir}: {err}") from err
    print(text, end="")
    for row in rows:
        if row.flagged:
            print(
                f"warning: cell {row.method} b={row.b} n={row.n} extra={row.extra} "
                f"had {row.n_failed}/{row.reps} failed replications",
                file=sys.stderr,
            )
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_flags(args)
        run = _run_assess if args.command == "assess" else _run_simulate
        try:
            code = run(args)
            sys.stdout.flush()
        except BrokenPipeError as err:
            # the reader is gone: send what is still buffered, and the flush
            # at exit, to the null device instead
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise IoError(f"cannot write to stdout: {err}") from None
        return code
    except UsageError as err:
        print(json.dumps({"error": "UsageError", "message": str(err)}), file=sys.stderr)
        return 2
    except FusionGainError as err:
        print(
            json.dumps(
                {"error": type(err).__name__, "stage": err.stage, "message": str(err)}
            ),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
