"""Workload definitions and output checks (standard library only).

A workload is a cycle of CLI operations that the worker repeats back to
back, one client, closed loop.  Each operation is an argv for
``fusiongain.cli.main``.  The checks here decide whether an operation
failed; they never look at timings.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("assess-kernel", "assess-linear", "simulate-grid")

# (file name, n, p) per workload; simulate-grid draws its data inside the package.
INPUTS = {
    "assess-kernel": [("kernel-p2", 2000, 2), ("kernel-p10", 2000, 10)],
    "assess-linear": [("linear-p10", 20000, 10), ("linear-p2", 20000, 2)],
    "simulate-grid": [],
}

# Seconds per cycle when this benchmark was added (2-vCPU Intel Xeon virtual
# machine, default BLAS threads); run.py turns --seconds into whole cycles.
NOMINAL_CYCLE_S = {"assess-kernel": 3.8, "assess-linear": 3.4, "simulate-grid": 1.6}

NU = 0.5
SIM_N = 500
SIM_REPS = 12
SIM_WORKERS = 2
# Master seed of the worker-count determinism check, whose results are pinned
# in pinned_simulate.csv.
PIN_SEED = 1
SIM_COLUMNS = ["method", "b", "n", "extra", "reps", "seed", "MAE", "SDAE", "AL", "CR"]


@dataclass(frozen=True)
class Op:
    kind: str
    argv: tuple[str, ...]
    method: str
    rows: int = 0  # assess: data rows in the input file
    out_dir: str = ""  # simulate: where simulation.csv lands
    cells: int = 0  # simulate: table cells
    reps: int = 0  # simulate: replications per cell


def cycle(workload: str, seed: int, files: dict, work_dir: Path,
          workers: int = SIM_WORKERS, sim_seed: int | None = None) -> list[Op]:
    """The operations of one cycle, in order; the first is the warm-up kind."""
    if workload == "assess-kernel":
        ops = []
        for name in ("kernel-p2", "kernel-p10"):
            rec = files[name]
            for method, regressor in (("mean-conditional", "local-linear"),
                                      ("mean-conditional", "k-nn"),
                                      ("quantile", "local-linear")):
                argv = ("assess", "--method", method, "--input", rec["path"],
                        "--nu", str(NU), "--regressor", regressor,
                        "--seed", str(seed), "--format", "json")
                ops.append(Op(f"{method}/{regressor}/p{rec['p']}", argv, method,
                              rows=rec["rows"]))
        return ops
    if workload == "assess-linear":
        ops = []
        for name in ("linear-p10", "linear-p2"):
            rec = files[name]
            for method in ("mean-linear", "linreg"):
                for fmt in ("json", "csv", "text"):
                    argv = ["assess", "--method", method, "--input", rec["path"],
                            "--nu", str(NU), "--seed", str(seed), "--format", fmt]
                    if method == "linreg":
                        argv += ["--s-column", "s", "--center", "--relative"]
                    ops.append(Op(f"{method}/{fmt}/p{rec['p']}", tuple(argv), method,
                                  rows=rec["rows"]))
        return ops
    if workload == "simulate-grid":
        ops = []
        for method, taus in (("mean-linear", None), ("mean-conditional", None),
                             ("quantile", "0.25,0.5"), ("linreg", None)):
            out = work_dir / f"sim-w{workers}-{method}"
            argv = ["simulate", "--method", method, "--b", "0,0.5", "--n", str(SIM_N),
                    "--reps", str(SIM_REPS), "--seed", str(seed if sim_seed is None else sim_seed),
                    "--out", str(out), "--workers", str(workers)]
            if taus is not None:
                argv += ["--tau", taus]
            cells = 2 * (len(taus.split(",")) if taus else 1)
            ops.append(Op(method, tuple(argv), method, out_dir=str(out),
                          cells=cells, reps=SIM_REPS))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def cpu_ticks() -> tuple[int, int]:
    """(busy, stolen) CPU time of the whole machine since boot, in clock ticks.

    Stolen time is time the hypervisor ran something else while this machine
    wanted the CPU.  (0, 0) where /proc/stat is not available.
    """
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            fields = [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    return user + nice + system + irq + softirq, steal


def steal_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Share of the CPU time wanted between two cpu_ticks() readings that was stolen."""
    busy, steal = after[0] - before[0], after[1] - before[1]
    return steal / (busy + steal) if busy + steal > 0 else 0.0


def _clamp(x: float) -> float:
    return min(1.0, max(0.0, x))


def _value(text: str):
    if text in ("", "None"):
        return None
    try:
        return float(text)
    except ValueError:
        return text


def _flatten(payload: dict, prefix: str = "") -> dict:
    flat = {}
    for key, value in payload.items():
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{prefix}{key}_"))
        else:
            flat[f"{prefix}{key}"] = value
    return flat


def parse_assess(fmt: str, text: str) -> dict:
    """Flat field -> value mapping from any of the three output formats."""
    if fmt == "json":
        return _flatten(json.loads(text))
    if fmt == "csv":
        header, row = list(csv.reader(io.StringIO(text)))
        return {key: _value(cell) for key, cell in zip(header, row, strict=True)}
    fields = {}
    for line in text.splitlines():
        key, cell = line.split(None, 1)
        fields[key] = _value(cell.strip())
    return fields


def check_assess(op: Op, code: int, out: str) -> str | None:
    """None if the output honours the assess contract, else what broke."""
    if code != 0:
        return f"exit code {code}"
    fmt = op.argv[op.argv.index("--format") + 1]
    try:
        f = parse_assess(fmt, out)
    except (ValueError, json.JSONDecodeError) as err:
        return f"unparsable {fmt} output: {err}"
    numeric = ["theta_hat_raw", "theta_hat", "gamma_hat", "ci_raw_lo", "ci_raw_hi",
               "ci_lo", "ci_hi", "nu", "n"]
    if "--relative" in op.argv:
        numeric += ["relative_point", "relative_ci_lo", "relative_ci_hi"]
    if op.method != "linreg":
        numeric.append("theta_tilde_raw")
    for key in numeric:
        value = f.get(key)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return f"{key} missing or not finite: {value!r}"
    if f.get("method") != op.method or f["n"] != op.rows:
        return f"method/n mismatch: {f.get('method')!r}, {f['n']!r}"
    if f["theta_hat"] != _clamp(f["theta_hat_raw"]):
        return "theta_hat is not clamp(theta_hat_raw)"
    if (f["ci_lo"], f["ci_hi"]) != (_clamp(f["ci_raw_lo"]), _clamp(f["ci_raw_hi"])):
        return "ci is not clamp(ci_raw)"
    if f["gamma_hat"] < 0 or f["ci_raw_lo"] > f["ci_raw_hi"]:
        return "negative gamma_hat or reversed interval"
    if op.method != "linreg" and f["theta_hat_raw"] < f["nu"] - 1e-12:
        return f"theta_hat_raw {f['theta_hat_raw']} below nu"
    center = f["theta_hat_raw"] if op.method == "linreg" else f["theta_tilde_raw"]
    mid = 0.5 * (f["ci_raw_lo"] + f["ci_raw_hi"])
    if abs(mid - center) > 1e-9 * max(1.0, abs(center)):
        return f"ci_raw centred at {mid}, expected {center}"
    return None


def read_simulation_csv(out_dir: str) -> list[dict]:
    with open(Path(out_dir) / "simulation.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != SIM_COLUMNS:
        raise ValueError(f"unexpected simulation.csv header {rows[:1]}")
    return [dict(zip(SIM_COLUMNS, row, strict=True)) for row in rows[1:]]


def check_simulate(op: Op, code: int, out: str, err: str) -> str | None:
    """None if the simulate run wrote a complete, unflagged table."""
    if code != 0:
        return f"exit code {code}"
    if "[flagged]" in out or "failed replications" in err:
        return "cell flagged for >1% failed replications"
    try:
        rows = read_simulation_csv(op.out_dir)
    except (OSError, ValueError) as exc:
        return f"bad simulation.csv: {exc}"
    if len(rows) != op.cells:
        return f"{len(rows)} rows, expected {op.cells}"
    for row in rows:
        if row["method"] != op.method or int(row["reps"]) != op.reps:
            return f"row {row} does not match the request"
        values = [float(row[k]) for k in ("MAE", "SDAE", "AL", "CR")]
        if not all(math.isfinite(v) and v >= 0 for v in values) or values[3] > 1:
            return f"row {row} has out-of-range values"
    return None


def check(op: Op, code: int, out: str, err: str) -> str | None:
    if op.argv[0] == "simulate":
        return check_simulate(op, code, out, err)
    return check_assess(op, code, out)
