"""One workload process: import, warm up, run the closed loop, report.

Started by run.py in a fresh interpreter.  It prints ``ready`` on stdout once
``fusiongain.cli`` is imported and the warm-up operation is done (run.py
times set-up up to that line), then runs the timed loop and writes its
result as JSON to ``--result``.  Each operation is an in-process call to
``fusiongain.cli.main`` with stdout and stderr captured.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import workloads


def run_op(cli, op) -> tuple[float, str | None]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(op.argv))
    elapsed = time.perf_counter() - start
    return elapsed, workloads.check(op, code, out.getvalue(), err.getvalue())


def loop(cli, ops, cycles: int, recorder=None) -> dict:
    """``cycles`` whole cycles of the operations, back to back.

    A sample is [kind, wall seconds, replications, traced, stolen CPU share
    of its cycle].  With a recorder, odd cycles run traced and even cycles
    untraced, so that both halves see the same conditions.
    """
    samples, failures = [], []
    for number in range(cycles):
        traced = recorder is not None and number % 2 == 1
        if traced:
            recorder.install()
        ticks = workloads.cpu_ticks()
        for op in ops:
            if traced:
                recorder.op_id = len(samples)
            elapsed, problem = run_op(cli, op)
            samples.append([op.kind, elapsed, op.cells * op.reps, traced])
            if problem is not None:
                failures.append(f"{op.kind}: {problem}")
        # Every sample of the cycle carries the cycle's stolen CPU share.
        share = workloads.steal_share(ticks, workloads.cpu_ticks())
        for sample in samples[-len(ops):]:
            sample.append(share)
        if traced:
            recorder.uninstall()
    return {"samples": samples, "failures": failures}


def determinism(cli, args, files) -> dict:
    """simulate-grid at PIN_SEED with 1 and with 2 workers: bytes must match."""
    walls, tables = {}, {}
    for workers in (1, 2):
        ops = workloads.cycle(args.workload, args.seed, files, Path(args.work),
                              workers=workers, sim_seed=workloads.PIN_SEED)
        walls[workers] = 0.0
        tables[workers] = []
        for op in ops:
            elapsed, problem = run_op(cli, op)
            if problem is not None:
                return {"ok": False, "problem": f"workers={workers} {op.kind}: {problem}"}
            walls[workers] += elapsed
            tables[workers].append((Path(op.out_dir) / "simulation.csv").read_bytes())
    if tables[1] != tables[2]:
        return {"ok": False, "problem": "simulation.csv differs between --workers 1 and 2"}
    rows = []
    for blob in tables[1]:
        rows.extend(blob.decode("utf-8").splitlines()[1:])
    return {"ok": True, "wall_w1": walls[1], "wall_w2": walls[2], "rows": rows}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cycles", type=int, default=0)
    parser.add_argument("--mode", choices=("setup", "e2e", "trace"), required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--files", default="{}", help="JSON: input name -> record")
    parser.add_argument("--result", default="")
    args = parser.parse_args()

    start = time.perf_counter()
    sys.path.insert(0, args.src)
    import fusiongain.cli as cli

    import_s = time.perf_counter() - start
    files = json.loads(args.files)
    workers = 1 if args.mode == "trace" else workloads.SIM_WORKERS
    ops = workloads.cycle(args.workload, args.seed, files, Path(args.work), workers=workers)
    warmup_s, problem = run_op(cli, ops[0])
    print(json.dumps({"import_s": import_s, "warmup_s": warmup_s, "problem": problem,
                      "module": cli.__file__}), flush=True)
    if args.mode == "setup":
        return 0

    # The other kinds are warmed up too, untimed, so that no first call of a
    # code path lands in the latency samples.
    problems = [problem] + [run_op(cli, op)[1] for op in ops[1:]]
    result = {"warmup_problem": "; ".join(p for p in problems if p)}
    if args.mode == "e2e":
        result["loop"] = loop(cli, ops, args.cycles)
    else:
        import spans

        recorder = spans.Recorder()
        result["missing_targets"] = recorder.install()
        recorder.uninstall()
        # Half the cycles, two at least so that one runs traced: the traced
        # simulate-grid runs with one worker and takes longer per cycle.
        result["loop"] = loop(cli, ops, max(2, args.cycles // 2), recorder)
        result["trace"] = recorder.summary(sum(1 for s in result["loop"]["samples"] if s[3]))
        result["trace"]["expected"] = sorted(spans.EXPECTED[args.workload])
    if args.workload == "simulate-grid":
        result["determinism"] = determinism(cli, args, files)
    result["maxrss_self_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["maxrss_children_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
