"""``tools/bench_record.py``: its summary statistics, and the committed
``BENCH_*.json`` files it wrote."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

MIN_RUNS = 10
ENV = {"nproc": 2, "cpu_model": "cpu", "python": "3.11", "numpy": "2", "scipy": "1",
       "openblas": "0.3", "git_commit": "unknown"}


def _record(workload, seed, throughput, **env):
    return {"workload": workload, "seed": seed, "seconds": 20.0, "correct": True,
            "attempted": 4, "failed": 0, "env": {**ENV, **env},
            "metrics": {"throughput_ops_s": {"value": throughput, "unit": "1/s"},
                        "setup_s": {"value": 0.5 + seed, "unit": "s"}}}


def test_medians_and_quartiles_follow_the_linear_rule():
    values = [7.0, 1.0, 4.0, 2.5, 9.0, 3.0]
    records = [_record("a", seed, v) for seed, v in enumerate(values)]
    records.append(_record("b", 0, 5.0))
    bench = bench_record.assemble(records, "abc")
    got = bench["summary"]["a"]["throughput_ops_s"]
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    assert got == {"unit": "1/s", "median": median, "q1": pytest.approx(q1),
                   "q3": pytest.approx(q3), "n": 6}
    assert bench["summary"]["b"]["setup_s"] == {"unit": "s", "median": 0.5, "q1": 0.5,
                                                 "q3": 0.5, "n": 1}
    assert bench["commit"] == "abc" and bench["machine"]["nproc"] == 2
    assert [(run["workload"], run["seed"]) for run in bench["runs"]][:2] == [("a", 0), ("a", 1)]
    assert bench["runs"][0]["metrics"] == {"throughput_ops_s": 7.0, "setup_s": 0.5}


def test_refuses_records_from_two_machines_or_commits():
    with pytest.raises(ValueError, match="nproc"):
        bench_record.assemble([_record("a", 0, 1.0), _record("a", 1, 1.0, nproc=4)])
    with pytest.raises(ValueError, match="commits"):
        bench_record.assemble([_record("a", 0, 1.0), _record("a", 1, 1.0, git_commit="x")])


BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_committed_bench_files_hold_ten_runs_per_workload(path):
    bench = json.loads(path.read_text(encoding="utf-8"))
    assert bench["summary"]
    for workload, metrics in bench["summary"].items():
        runs = [run for run in bench["runs"] if run["workload"] == workload]
        assert len(runs) >= MIN_RUNS, workload
        assert all(summary["n"] == len(runs) for summary in metrics.values()), workload
