"""Seeded CSV inputs for the assess workloads.

Each file gets its own Philox stream keyed by (seed, file index), so the
inputs are a pure function of the seed and never depend on the package
under test.  The process is Y = b (S + W) + eps with corr(S, W) = RHO and
standard normal noise; columns beyond S and W are independent normals.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

B = 0.5
RHO = 0.2


def draw(seed: int, index: int, n: int, p: int) -> np.ndarray:
    """(n, 1 + p) array: y first, then s, w and p - 2 extra covariates."""
    gen = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
    )
    z = gen.standard_normal((n, p + 1))
    s = z[:, 0]
    w = RHO * s + math.sqrt(1.0 - RHO * RHO) * z[:, 1]
    y = B * (s + w) + z[:, 2]
    return np.column_stack([y, s, w, z[:, 3:]])


def write_csv(path: Path, table: np.ndarray) -> None:
    p = table.shape[1] - 1
    header = ["y", "s", "w"] + [f"x{j}" for j in range(3, p + 1)]
    lines = [",".join(header)]
    lines.extend(",".join(map(repr, row)) for row in table.tolist())
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_inputs(specs, seed: int, out_dir: Path) -> list[dict]:
    """Write one CSV per (name, n, p) spec; return a record per file."""
    records = []
    for index, (name, n, p) in enumerate(specs):
        path = out_dir / f"{name}.csv"
        write_csv(path, draw(seed, index, n, p))
        records.append(
            {"name": name, "path": str(path), "n": n, "p": p, "rows": n,
             "bytes": path.stat().st_size}
        )
    return records
