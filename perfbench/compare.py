"""Compare two sets of benchmark results written by ``run.py --out``.

    python3 perfbench/compare.py --base parent/*.json --new change/*.json

Files are grouped by (workload, trace); each metric's median over a group
is compared, and an end-to-end metric that got worse by more than its bound
in BENCHMARK.json is marked REGRESSED.  Result sets measured with different
BLAS thread settings or core counts are refused (exit code 2): those settings
change the program being measured.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths: list[str]) -> dict:
    groups: dict[tuple, list[dict]] = {}
    for path in paths:
        record = json.loads(Path(path).read_text())
        groups.setdefault((record["workload"], record["trace"]), []).append(record)
    return groups


def machine(record: dict) -> tuple:
    env = record["env"]
    return env["nproc"], tuple(sorted(env["blas_env"].items()))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args()
    base, new = load(args.base), load(args.new)
    machines = {machine(r) for groups in (base, new) for rs in groups.values() for r in rs}
    if len(machines) > 1:
        print(f"refusing to compare: core counts / BLAS thread settings differ: {machines}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    regressed = False
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        print(f"{workload} (trace={trace}): {len(base[key])} base runs, {len(new[key])} new runs")
        for name in base[key][0]["metrics"]:
            b = statistics.median(r["metrics"][name]["value"] for r in base[key])
            n = statistics.median(r["metrics"][name]["value"] for r in new[key])
            unit = base[key][0]["metrics"][name]["unit"]
            change = (n - b) / b if b else float("nan")
            verdict = ""
            if name in bounds:
                worse = change if bounds[name]["better"] == "lower" else -change
                verdict = "REGRESSED" if worse > bounds[name]["bound"] else "ok"
                regressed |= verdict == "REGRESSED"
            print(f"  {name:58s} {b:12.6g} -> {n:12.6g} {unit:6s} {change:+8.1%} {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
