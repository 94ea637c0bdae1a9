"""fusiongain benchmark: one workload, one run, one JSON result line.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload assess-kernel --seed 1 --seconds 20 --trace 0

The package is imported from the checkout's ``src/``.  The run writes its
seeded inputs, times set-up in several fresh interpreters, then runs the
workload's closed loop in one more fresh interpreter (worker.py) and checks
every output.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics from wrapped package functions.  Human-readable lines
come first; the last line of stdout is the JSON result.  The exit code is
nonzero when any output check fails or the package cannot be found.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Fresh interpreters timed for setup_s: SETUP_PROBES extra ones plus the worker.
SETUP_PROBES = 4
# Every worker of a run is killed once the run has lasted this long.
RUN_DEADLINE_S = 170.0
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

E2E_UNITS = {"setup_s": "s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
             "throughput_ops_s": "1/s", "peak_rss_mb": "MB"}
# Inclusive-time layers: seconds per traced operation, plus a work rate if counted.
INCLUSIVE = {"nuisance.local_linear": ("nuisance.local_linear.predict", "predict_s", "pairs_per_s"),
             "nuisance.knn": ("nuisance.knn.predict", "predict_s", "pairs_per_s"),
             "nuisance.cond_kde": ("nuisance.cond_kde", "s", "pairs_per_s"),
             "cli.parse_csv": ("cli.parse_csv", "s", "rows_per_s"),
             "nuisance.silverman_bandwidth": ("nuisance.silverman_bandwidth", "s", None),
             "nuisance.fit_conditional_mean": ("nuisance.fit_conditional_mean", "s", None),
             "nuisance.make_split_plan": ("nuisance.make_split_plan", "s", None),
             "rng.fisher_yates": ("rng.fisher_yates", "s", None),
             "rng.substream": ("rng.substream", "s", None),
             "simulation.generate_dgp": ("simulation.generate_dgp", "s", None),
             "simulation.true_theta": ("simulation.true_theta", "s", None)}
INCLUSIVE_SPANS = tuple(span for span, _, _ in INCLUSIVE.values())
SELF_TIME = ("nuisance.crossfit_predict", "cli", "simulation.run_monte_carlo",
             "mean_utility.compute_mean_intermediates", "mean_utility.split_estimate_mean",
             "mean_utility.variance_mean", "quantile_utility.compute_quantile_intermediates",
             "quantile_utility.split_estimate_quantile", "quantile_utility.variance_quantile",
             "linreg_utility.fit_components", "linreg_utility.variance_linreg", "core")


class BenchError(Exception):
    """The run cannot produce a result."""


def environment() -> dict:
    env = {"nproc": len(os.sched_getaffinity(0)), "cpu_model": platform.processor() or "",
           "python": platform.python_version(),
           "blas_env": {name: os.environ.get(name) for name in BLAS_VARS},
           "git_commit": git_commit()}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            env["cpu_model"] = next(line.split(":", 1)[1].strip() for line in fh
                                    if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    import numpy
    import scipy

    env["numpy"], env["scipy"] = numpy.__version__, scipy.__version__
    try:
        env["openblas"] = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError):
        env["openblas"] = "unknown"
    return env


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spawn(args, mode: str, files: dict, result_path: Path | None) -> tuple[float, dict]:
    """Start worker.py in a fresh interpreter; return (seconds to ready, ready record).

    The seconds exclude the machine's stolen CPU share over that interval.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--cycles", str(args.cycles), "--mode", mode,
           "--src", str(ROOT / "src"), "--work", str(args.work), "--files", json.dumps(files),
           "--result", str(result_path or "")]
    ticks = workloads.cpu_ticks()
    start = time.perf_counter()
    # Own session, so that the watchdog also takes down simulate's pool workers.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    watchdog = threading.Timer(max(1.0, args.deadline - start),
                               lambda: os.killpg(proc.pid, signal.SIGKILL))
    watchdog.start()
    try:
        line = proc.stdout.readline()
        ready_s = time.perf_counter() - start
        stolen = workloads.steal_share(ticks, workloads.cpu_ticks())
        proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    if code != 0 or not line:
        raise BenchError(f"worker ({mode}) exited with code {code}")
    return ready_s * (1.0 - stolen), json.loads(line)


def tail(values: list[float]) -> tuple[float, float]:
    """Value at the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    index = max(0, len(ordered) - 11)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def end_to_end(result: dict, setups: list[float], lines: list[str]) -> dict:
    samples = result["loop"]["samples"]
    by_kind: dict[str, list[float]] = {}
    for sample in samples:
        by_kind.setdefault(sample[0], []).append(unstolen(sample))
    busy = sum(unstolen(s) for s in samples)
    tail_s, tail_pct = tail([unstolen(s) for s in samples])
    peak_kb = max(result["maxrss_self_kb"], result["maxrss_children_kb"])
    metrics = {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": 1e3 * statistics.fmean(statistics.median(v) for v in by_kind.values()),
        "latency_tail_ms": 1e3 * tail_s,
        "throughput_ops_s": throughput(samples),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    counts = {"setup_s": len(setups), "latency_p50_ms": len(samples),
              "latency_tail_ms": len(samples), "throughput_ops_s": len(samples),
              "peak_rss_mb": 1}
    notes = {"latency_p50_ms": f"median per kind, mean over {len(by_kind)} kinds",
             "latency_tail_ms": f"p{tail_pct:.1f}",
             "peak_rss_mb": "max of worker and largest child"}
    for name, value in metrics.items():
        lines.append(f"metric {name} = {value:.6g} {E2E_UNITS[name]} "
                     f"(samples={counts[name]}) {notes.get(name, '')}".rstrip())
    raw = [s[1] for s in samples]
    lines.append(f"wall with steal: latency_p50_ms = "
                 f"{1e3 * statistics.fmean(statistics.median(v) for v in raw_by_kind(samples)):.6g}"
                 f" ms, throughput_ops_s = {len(raw) / sum(raw):.6g} 1/s")
    reps = sum(s[2] for s in samples)
    if reps:
        lines.append(f"metric sim_reps_s = {reps / busy:.6g} 1/s (samples={len(samples)}, "
                     f"replications={reps})")
    for kind, values in by_kind.items():
        lines.append(f"kind {kind}: n={len(values)} median={1e3 * statistics.median(values):.1f} ms")
    return {name: {"value": value, "unit": E2E_UNITS[name]} for name, value in metrics.items()}


def per_layer(result: dict, lines: list[str]) -> dict:
    trace = result["trace"]
    ops = max(1, trace["ops"])
    spans = trace["spans"]
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0}
    metrics = {}
    for prefix, (span, time_key, rate_key) in INCLUSIVE.items():
        entry = spans.get(span, empty)
        metrics[f"{prefix}.{time_key}"] = (entry["s"] / ops, "s/op")
        if rate_key:
            rate = entry["work"] / entry["s"] if entry["s"] > 0 else 0.0
            metrics[f"{prefix}.{rate_key}"] = (rate, "1/s")
    for span in SELF_TIME:
        metrics[f"{span}.self_s"] = (spans.get(span, empty)["self_s"] / ops, "s/op")
    det = result.get("determinism") or {}
    efficiency = det["wall_w1"] / (2.0 * det["wall_w2"]) if det.get("ok") else 0.0
    metrics["simulation.parallel_efficiency"] = (efficiency, "1")
    untraced = throughput([s for s in result["loop"]["samples"] if not s[3]])
    traced = throughput([s for s in result["loop"]["samples"] if s[3]])
    metrics["tracing.overhead_pct"] = (100.0 * (untraced / traced - 1.0), "%")
    for span in sorted(set(INCLUSIVE_SPANS) | set(SELF_TIME)):
        metrics[f"{span}.calls"] = (spans.get(span, empty)["calls"] / ops, "1/op")
    for name, (value, unit) in metrics.items():
        lines.append(f"layer {name} = {value:.6g} {unit} (ops={trace['ops']})")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def raw_by_kind(samples) -> list[list[float]]:
    kinds: dict[str, list[float]] = {}
    for sample in samples:
        kinds.setdefault(sample[0], []).append(sample[1])
    return list(kinds.values())


def unstolen(sample) -> float:
    """Wall seconds of one operation less its cycle's stolen CPU share."""
    return sample[1] * (1.0 - sample[4])


def throughput(samples) -> float:
    return len(samples) / sum(unstolen(s) for s in samples)


def failures_of(result: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over the timed operations and the run's checks."""
    attempted = len(result["loop"]["samples"])
    problems = list(result["loop"]["failures"])
    failed = len(problems)
    if result.get("warmup_problem"):
        problems.append(f"warm-up: {result['warmup_problem']}")
    problems.extend(f"set-up warm-up: {p}" for p in result["setup_problems"])
    det = result.get("determinism")
    if det is not None and not det["ok"]:
        problems.append(f"determinism: {det['problem']}")
    for target in result.get("missing_targets", []):
        problems.append(f"trace target gone: {target}")
    if "trace" in result:
        fired = result["trace"]["spans"]
        for span in result["trace"]["expected"]:
            if span not in fired:
                problems.append(f"expected span never fired: {span}")
    return attempted, failed, problems


def pinned_drift(det: dict) -> str:
    """Largest |difference| of MAE/SDAE/AL/CR from pinned_simulate.csv."""
    def table(rows):
        out = {}
        for row in rows:
            cells = row.split(",")
            out[tuple(cells[:6])] = [float(v) for v in cells[6:]]
        return out

    pins = table((HERE / "pinned_simulate.csv").read_text().splitlines()[1:])
    now = table(det["rows"])
    if set(pins) != set(now):
        return "cells differ from the pinned grid"
    drift = max(abs(a - b) for key in pins for a, b in zip(pins[key], now[key]))
    return f"{drift:.3g} over {len(pins)} cells"


def run(args) -> int:
    if not (ROOT / "src" / "fusiongain" / "cli.py").is_file():
        raise BenchError(f"no fusiongain sources under {ROOT / 'src'}")
    env = environment()
    args.work.mkdir(parents=True, exist_ok=True)
    lines = [f"env {json.dumps(env, sort_keys=True)}"]
    files = {}
    from inputs import write_inputs

    for rec in write_inputs(workloads.INPUTS[args.workload], args.seed, args.work):
        files[rec["name"]] = rec
        lines.append(f"input {rec['name']}: n={rec['n']} p={rec['p']} rows={rec['rows']} "
                     f"bytes={rec['bytes']}")
    mode = "trace" if args.trace else "e2e"
    ticks, wall_start = workloads.cpu_ticks(), time.perf_counter()
    result_path = args.work / "result.json"
    readies = [spawn(args, "setup", files, None) for _ in range(SETUP_PROBES)]
    readies.append(spawn(args, mode, files, result_path))
    setups = [ready_s for ready_s, _ in readies]
    for _, ready in readies:
        module = Path(ready["module"]).resolve()
        if ROOT / "src" not in module.parents:
            raise BenchError(f"imported fusiongain from {module}, not from this checkout")
    result = json.loads(result_path.read_text())
    result["setup_problems"] = [ready["problem"] for _, ready in readies if ready["problem"]]
    lines.append(f"env steal: the host took {workloads.steal_share(ticks, workloads.cpu_ticks()):.1%}"
                 f" of the CPU time wanted in {time.perf_counter() - wall_start:.1f} s of wall time")
    if args.trace:
        metrics = per_layer(result, lines)
    else:
        metrics = end_to_end(result, setups, lines)
    attempted, failed, problems = failures_of(result)
    lines.append(f"metric fail_ratio = {failed / max(1, attempted):.6g} 1 "
                 f"(samples={attempted})")
    if "determinism" in result and result["determinism"]["ok"]:
        det = result["determinism"]
        lines.append(f"check simulate --workers 1 vs 2 simulation.csv: identical "
                     f"({det['wall_w1']:.2f} s vs {det['wall_w2']:.2f} s)")
        lines.append(f"check simulate drift from pinned values: {pinned_drift(det)}")
    lines.extend(f"FAILED {p}" for p in problems)
    record = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "env": env, "lines": lines, **record},
            indent=1, sort_keys=True) + "\n")
    print("\n".join(lines))
    print(json.dumps(record))
    return 0 if not problems else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default="", help="also write the full result here")
    args = parser.parse_args()
    # Whole cycles that took --seconds when this benchmark was added: a fixed
    # amount of work per run keeps the tail percentile the same across commits.
    args.cycles = max(1, math.ceil(args.seconds / workloads.NOMINAL_CYCLE_S[args.workload]))
    args.deadline = time.perf_counter() + RUN_DEADLINE_S
    args.work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return run(args)
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(args.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            args.work.parent.rmdir()


if __name__ == "__main__":
    sys.exit(main())
