"""Gather ``perfbench/run.py --out`` records into one ``BENCH_<k>.json`` file.

Usage, from the root of a source checkout:

    python3 tools/bench_record.py --commit SHA --out BENCH_0.json RECORD.json...

Each RECORD is the file one benchmark run wrote with ``--out``.  The output
holds the commit, the machine (nproc, CPU model, Python, numpy, scipy and
OpenBLAS versions, all read from the records, which must agree on them),
each run's workload, seed, operation counts and end-to-end metrics, and,
for each workload and metric, the median and the quartiles over its runs.
Quartiles use the inclusive linear rule, ``numpy.percentile``'s default.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

# machine fields of a record's "env" that every record of one file must share
MACHINE = ("nproc", "cpu_model", "python", "numpy", "scipy", "openblas")


def summarize(values: list[float]) -> dict:
    """Median, first and third quartiles and count of one metric's runs."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def assemble(records: list[dict], commit: str | None = None) -> dict:
    """The BENCH file for ``records``; ``commit`` replaces the records' own
    ``git_commit``, which a checkout without ``.git`` cannot supply."""
    if not records:
        raise ValueError("no records")
    envs = [record["env"] for record in records]
    machine = {key: envs[0].get(key) for key in MACHINE}
    for env in envs:
        differing = [key for key in MACHINE if env.get(key) != machine[key]]
        if differing:
            raise ValueError(f"records from different machines differ in {differing}")
    if commit is None:
        commits = {env.get("git_commit") for env in envs}
        if len(commits) != 1:
            raise ValueError(f"records from several commits: {sorted(map(str, commits))}")
        commit = commits.pop()
    runs = sorted(
        ({"workload": r["workload"], "seed": r["seed"], "seconds": r["seconds"],
          "correct": r["correct"], "attempted": r["attempted"], "failed": r["failed"],
          "metrics": {name: m["value"] for name, m in r["metrics"].items()}}
         for r in records),
        key=lambda run: (run["workload"], run["seed"]))
    summary: dict[str, dict] = {}
    for workload in sorted({run["workload"] for run in runs}):
        mine = [r for r in records if r["workload"] == workload]
        units = {name: m["unit"] for r in mine for name, m in r["metrics"].items()}
        summary[workload] = {
            name: {"unit": unit, **summarize([r["metrics"][name]["value"] for r in mine
                                              if name in r["metrics"]])}
            for name, unit in sorted(units.items())}
    return {"commit": commit, "machine": machine, "runs": runs, "summary": summary}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("records", nargs="+", help="perfbench/run.py --out files")
    parser.add_argument("--out", required=True, help="the BENCH_<k>.json to write")
    parser.add_argument("--commit", help="the commit the records measured")
    args = parser.parse_args(argv)
    records = [json.loads(Path(path).read_text(encoding="utf-8")) for path in args.records]
    bench = assemble(records, args.commit)
    Path(args.out).write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
