"""Reproducible per-path random streams.

Each sample path owns a counter-based Philox stream keyed by
(seed, path_index); the position within the stream is the step counter.
Scheduling therefore cannot change results: any partition of a batch
across workers draws bitwise-identical numbers for a given path.

One path can own several streams (state noise vs. sampled actions).
The stream label sits in the top word of the Philox counter, which the
step counter never reaches and the seed does not touch, so streams are
distinct for every seed.  The state stream (label 0) starts at the zero
counter and draws the same bits as an unlabelled Philox(key=(seed, path)).

Normal variates use one fixed, documented transform so independent
implementations can reproduce them exactly:

    u = ((raw >> 11) + 0.5) * 2**-53        raw: uint64 from Philox
    z = ndtri(u)                            inverse standard-normal CDF

u lies strictly inside (0, 1), so z is always finite.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

# Stream labels: word 3 of the Philox counter.
STATE_STREAM = 0
ACTION_STREAM = 0x9E3779B97F4A7C15  # fixed odd salt, splitmix64 constant

_INV_2_53 = 2.0 ** -53


def valid_seed(seed: int) -> bool:
    """Seeds are unsigned 64-bit integers: they fill one Philox key word."""
    return 0 <= seed < 2 ** 64


def standard_normals(seed: int, path_index: int, n: int,
                     stream: int = STATE_STREAM) -> np.ndarray:
    """n standard normals for one path, reproducible from (seed, path)."""
    return normal_block(seed, path_index, 1, n, stream)[0]


def normal_block(seed: int, first_path: int, n_paths: int, n_steps: int,
                 stream: int = STATE_STREAM) -> np.ndarray:
    """(n_paths, n_steps) matrix of standard normals, row p belonging to
    path ``first_path + p``.  Rows are independent streams, so any
    chunking of paths reproduces the same matrix rows."""
    if not valid_seed(seed):
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    counter = np.array([0, 0, 0, stream], dtype=np.uint64)
    out = np.empty((n_paths, n_steps))
    for i in range(n_paths):
        key = np.array([seed, first_path + i], dtype=np.uint64)
        raw = np.random.Philox(key=key, counter=counter).random_raw(n_steps)
        out[i] = ndtri(((raw >> np.uint64(11)).astype(np.float64) + 0.5) * _INV_2_53)
    return out
