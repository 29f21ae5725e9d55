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

    v = min((raw >> 11) + 0.5, 2**53 - 1)   raw: uint64 from Philox
    u = v * 2**-53
    z = ndtri(u)                            inverse standard-normal CDF

In float64, (2**53 - 1) + 0.5 rounds to 2**53 (ties to even), which
would give u = 1 and z = +inf; the clamp maps that one raw value to
u = 1 - 2**-53 (z = 8.2095...) and leaves every other value as it is.
So u lies strictly inside (0, 1), and z is always finite.

``normal_block`` writes each row's raw Philox bits straight into its
float64 output (viewed as uint64), so a row costs only the re-key and
the draw.  It converts the block in place in tiles of 64 rows: one
in-place uint64 -> float64 pass over a whole block makes NumPy copy the
overlap first (8.5 MB for 2048 x 512), while a tile's copy is 0.26 MB.

The calling thread draws every row.  In a block of two or more tiles,
one helper thread, started and joined within the call, converts each
tile as soon as its rows are drawn: the conversion and ``ndtri``
release the interpreter lock, the row loop holds it.  Once every row
is drawn, the caller converts the tiles the helper has not claimed.
Conversion is elementwise and each row's stream is fixed by its
counter, so which thread converts a tile does not change a bit.
"""

from __future__ import annotations

import itertools
import threading

import numpy as np
from scipy.special import ndtri

# Stream labels: word 3 of the Philox counter.
STATE_STREAM = 0
ACTION_STREAM = 0x9E3779B97F4A7C15  # fixed odd salt, splitmix64 constant

_INV_2_53 = 2.0 ** -53
# The largest (raw >> 11) + 0.5 that keeps u below 1 (see above).
_TOP = 2.0 ** 53 - 1
# Rows per uint64 -> float64 conversion in normal_block.
_TILE_ROWS = 64


def is_integer(x) -> bool:
    """A Python or NumPy integer: the one test for every count, index and
    seed, so a float or a bool is rejected rather than truncated."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def valid_seed(seed: int) -> bool:
    """Seeds are unsigned 64-bit integers: they fill one Philox key word."""
    return is_integer(seed) and 0 <= seed < 2 ** 64


def check_seed(seed) -> None:
    """Raise ValueError, naming the seed, unless :func:`valid_seed`."""
    if not valid_seed(seed):
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")


def normal_block(seed: int, first_path: int, n_paths: int, n_steps: int,
                 stream: int = STATE_STREAM, first_step: int = 0,
                 out: np.ndarray | None = None) -> np.ndarray:
    """(n_paths, n_steps) matrix of standard normals: row p, column j is
    normal number ``first_step + j`` of path ``first_path + p``.  Rows
    are independent streams, so any chunking of paths or steps
    reproduces the same entries.  ``out``, if given, is filled and
    returned."""
    check_seed(seed)
    for name, value in (("first_path", first_path), ("first_step", first_step),
                        ("n_paths", n_paths), ("n_steps", n_steps)):
        if not (is_integer(value) and value >= 0):
            raise ValueError(f"{name} must be an integer >= 0, got {value!r}")
    # Path indices fill a 64-bit key word; steps keep to the same range.
    for name, first, count in (("first_path + n_paths", first_path, n_paths),
                               ("first_step + n_steps", first_step, n_steps)):
        if first + count > 2 ** 64:
            raise ValueError(f"{name} must be <= 2**64, got {first} + {count}")
    if out is None:
        out = np.empty((n_paths, n_steps))
    elif out.shape != (n_paths, n_steps) or out.dtype != np.float64:
        raise ValueError(f"out must be a float64 array of shape "
                         f"{(n_paths, n_steps)}, got {out.dtype} {out.shape}")
    if not out.flags.writeable:
        raise ValueError("out must be writeable, got a read-only array")
    skip = first_step % 4
    # One generator, re-keyed per row: assigning .state is cheaper than
    # constructing a Philox, and cheaper again from Python ints and lists
    # than from the NumPy arrays .state returns (the same 64-bit words).
    gen = np.random.Philox(
        key=np.array([seed, 0], dtype=np.uint64),
        counter=np.array([first_step // 4, 0, 0, stream], dtype=np.uint64))
    state = gen.state
    state["state"] = {name: words.tolist() for name, words in state["state"].items()}
    state["buffer"] = state["buffer"].tolist()
    key = state["state"]["key"]
    # The raw bits go straight into ``out``; each row costs only the
    # re-key and the draw.
    bits = out.view(np.uint64)

    def draw(tile):
        for i in range(tile * _TILE_ROWS, min((tile + 1) * _TILE_ROWS, n_paths)):
            key[1] = first_path + i
            gen.state = state
            bits[i] = gen.random_raw(skip + n_steps)[skip:]

    def convert(tile):
        # In tiles of rows, so NumPy's copy of the overlap stays small.
        rows = slice(tile * _TILE_ROWS, (tile + 1) * _TILE_ROWS)
        raw, z = bits[rows], out[rows]
        np.right_shift(raw, np.uint64(11), out=raw)
        np.add(raw, 0.5, out=z)
        np.minimum(z, _TOP, out=z)
        z *= _INV_2_53
        ndtri(z, out=z)

    n_tiles = -(-n_paths // _TILE_ROWS)
    if n_tiles < 2:
        for tile in range(n_tiles):
            draw(tile)
            convert(tile)
        return out
    # Both threads take tiles to convert from one counter (``next`` on
    # an ``itertools.count`` is atomic under the interpreter lock), so
    # each tile is converted once; the helper waits until a tile's rows
    # are drawn.  An error on either thread sets ``abort`` and stops the
    # other.
    claims = itertools.count()
    drawn = [threading.Event() for _ in range(n_tiles)]
    abort = threading.Event()
    helper_error = []

    def convert_claimed(wait):
        for tile in claims:
            if tile >= n_tiles:
                return
            if wait:
                drawn[tile].wait()
            if abort.is_set():
                return
            convert(tile)

    def helper():
        try:
            convert_claimed(wait=True)
        except BaseException as exc:  # re-raised on the caller
            helper_error.append(exc)
            abort.set()

    thread = threading.Thread(target=helper, name="normal_block", daemon=True)
    thread.start()
    try:
        for tile in range(n_tiles):
            if abort.is_set():
                break
            draw(tile)
            drawn[tile].set()
        convert_claimed(wait=False)
    except BaseException:
        abort.set()
        raise
    finally:
        for event in drawn:
            event.set()
        thread.join()
    if helper_error:
        raise helper_error[0]
    return out
