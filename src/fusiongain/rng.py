"""Deterministic randomness plumbing.

All randomness in the package flows through counter-based Philox-4x64-10
streams keyed by (seed, domain) pairs of 64-bit words, so any replication,
fold assignment or simulation cell can be regenerated in isolation, in any
order, on any worker.  Normal variates are produced by inverse-CDF transform
of uniforms drawn on the centered dyadic grid (k + 1/2) / 2^53, which keeps
them strictly inside (0, 1) and makes the draws a pure function of the
key.  Reference outputs for two keys are pinned in the test suite and listed
in the README.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

_MASK64 = (1 << 64) - 1

# Fixed domain separators for the package's independent stream families.
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def hash_str(text: str) -> int:
    """FNV-1a 64-bit hash, used to turn tags into stream domain words."""
    acc = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        acc = ((acc ^ byte) * _FNV_PRIME) & _MASK64
    return acc


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def mix64(*parts: int) -> int:
    """Fold integers into one 64-bit word via chained SplitMix64 steps."""
    acc = 0
    for part in parts:
        acc = _splitmix64(acc ^ (int(part) & _MASK64))
    return acc


DOMAIN_SPLIT = hash_str("fold-assignment")
DOMAIN_DGP = hash_str("synthetic-data")


def substream(key: int, domain: int) -> np.random.Generator:
    """Philox generator keyed by two 64-bit words; independent across keys."""
    words = np.array([key & _MASK64, domain & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=words))


def uniforms_open(gen: np.random.Generator, shape) -> np.ndarray:
    """Uniforms on the open interval (0, 1), centered dyadic grid."""
    grid = gen.integers(0, 1 << 53, size=shape, dtype=np.int64)
    return (grid + 0.5) * 2.0**-53


def standard_normals(gen: np.random.Generator, shape) -> np.ndarray:
    """Standard normal draws by inverse CDF of :func:`uniforms_open`."""
    return ndtri(uniforms_open(gen, shape))


def fisher_yates(gen: np.random.Generator, n: int) -> np.ndarray:
    """Seeded Fisher-Yates permutation of 0..n-1.

    The swap targets are drawn in one vectorized call (position i in
    n-1, ..., 1 gets a uniform index on [0, i]) so the draw order is part of
    the documented contract.  The swaps run on a Python list, which is several
    times faster than swapping numpy array elements one pair at a time.
    """
    if n <= 1:
        return np.arange(n)
    targets = gen.integers(0, np.arange(n, 1, -1))
    idx = list(range(n))
    for i, j in zip(range(n - 1, 0, -1), targets.tolist()):
        idx[i], idx[j] = idx[j], idx[i]
    return np.array(idx)
