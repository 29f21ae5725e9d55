"""Reproducible per-path random streams.

Each sample path owns a counter-based Philox stream keyed by
(seed, path_index); the position within the stream is the step counter.
Scheduling therefore cannot change results: any partition of a batch
across workers draws bitwise-identical numbers for a given path.

Normal variates use one fixed, documented transform so independent
implementations can reproduce them exactly:

    u = ((raw >> 11) + 0.5) * 2**-53        raw: uint64 from Philox
    z = ndtri(u)                            inverse standard-normal CDF

u lies strictly inside (0, 1), so z is always finite.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

# Stream labels mixed into the key so that one path can own several
# independent streams (state noise vs. sampled actions).
STATE_STREAM = 0
ACTION_STREAM = 0x9E3779B97F4A7C15  # fixed odd salt, splitmix64 constant

_U64 = np.uint64
_INV_2_53 = 2.0 ** -53


def valid_seed(seed: int) -> bool:
    """Seeds are unsigned 64-bit integers: they fill one Philox key word."""
    return 0 <= seed < 2 ** 64


def _philox(seed: int, path_index: int, stream: int) -> np.random.Philox:
    if not valid_seed(seed):
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    key = np.array([_U64(seed) ^ _U64(stream), _U64(path_index)], dtype=np.uint64)
    return np.random.Philox(key=key)


def standard_normals(seed: int, path_index: int, n: int,
                     stream: int = STATE_STREAM) -> np.ndarray:
    """n standard normals for one path, reproducible from (seed, path)."""
    raw = _philox(seed, path_index, stream).random_raw(n)
    u = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * _INV_2_53
    return ndtri(u)


def normal_block(seed: int, first_path: int, n_paths: int, n_steps: int,
                 stream: int = STATE_STREAM) -> np.ndarray:
    """(n_paths, n_steps) matrix of standard normals, row p belonging to
    path ``first_path + p``.  Rows are independent streams, so any
    chunking of paths reproduces the same matrix rows."""
    out = np.empty((n_paths, n_steps))
    for i in range(n_paths):
        out[i] = standard_normals(seed, first_path + i, n_steps, stream)
    return out
