"""Reproducible per-path random streams.

Each sample path owns a counter-based Philox stream keyed by
(seed, path_index); the position within the stream is the step counter.
Scheduling therefore cannot change results: any partition of a batch
into paths or steps draws bitwise-identical numbers for a given path.

The Philox counter has four 64-bit words.  Word 0 holds step // 4 (one
Philox block yields the normals of four consecutive steps); word 3
holds the stream label.  One path can own several streams (state noise
vs. sampled actions).  The step counter never reaches word 3 and the
seed does not touch it, so streams are distinct for every seed.  The
state stream (label 0) starts at the zero counter and draws the same
bits as an unlabelled Philox(key=(seed, path)).

A block may start at any step: ``normal_block(..., first_step=s)``
returns normals s, s + 1, ... of each path, the same numbers a draw
from step 0 puts in those columns.

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


def normal_block(seed: int, first_path: int, n_paths: int, n_steps: int,
                 stream: int = STATE_STREAM, first_step: int = 0,
                 out: np.ndarray | None = None) -> np.ndarray:
    """(n_paths, n_steps) matrix of standard normals: row p, column j is
    normal number ``first_step + j`` of path ``first_path + p``.  Rows
    are independent streams, so any chunking of paths or steps
    reproduces the same entries.  ``out``, if given, is filled and
    returned."""
    if not valid_seed(seed):
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    for name, value in (("first_path", first_path), ("first_step", first_step),
                        ("n_paths", n_paths), ("n_steps", n_steps)):
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value!r}")
    if out is None:
        out = np.empty((n_paths, n_steps))
    elif out.shape != (n_paths, n_steps) or out.dtype != np.float64:
        raise ValueError(f"out must be a float64 array of shape "
                         f"{(n_paths, n_steps)}, got {out.dtype} {out.shape}")
    skip = first_step % 4
    # One generator, re-keyed per row: assigning .state is cheaper than
    # constructing a Philox.
    gen = np.random.Philox(
        key=np.array([seed, 0], dtype=np.uint64),
        counter=np.array([first_step // 4, 0, 0, stream], dtype=np.uint64))
    state = gen.state
    key = state["state"]["key"]
    for i in range(n_paths):
        key[1] = first_path + i
        gen.state = state
        raw = gen.random_raw(skip + n_steps)[skip:]
        np.right_shift(raw, np.uint64(11), out=raw)
        np.add(raw, 0.5, out=out[i])
    out *= _INV_2_53
    ndtri(out, out=out)
    return out
