"""Simulation of the controlled state dynamics.

Under an affine Gaussian feedback policy the policy-averaged state
follows

    dX = (a1 X + a2) dt + sqrt((b1 X + b2)^2 + c1) dW,

which Euler-Maruyama discretizes on a uniform grid.  A policy with
variance zero is a deterministic feedback, so the classical controlled
SDE is the same call: pass ``Solution.classical_policy``.
:func:`exact_batch` and :func:`strong_errors` walk the reference paths
of :mod:`exploratory_lq.exact` over the same noise blocks.

Randomness is counter-based per path (see :mod:`exploratory_lq.rng`),
so a path's values depend only on (seed, path_index), never on the
batch size or the chunk it was stepped in.  Every sample path, Euler or
exact, is walked the same way: 2048 paths per chunk, wide enough that
NumPy's per-call overhead is small against each step's work, with their
noise drawn in blocks of steps.  An Euler walk with zero volatility
(b1 = b2 = c1 = 0) draws no state noise; one that draws both state and
action noise steps 1024 paths per chunk.  A block holds at most 512
steps, and a chunk's blocks at most 2**19 normals (4 MB) across the
streams it draws: a full chunk draws 256 steps at a time, a chunk of
1024 or fewer path-streams 512.

Every block has one layout (:func:`_noise_blocks`): normal k of a path
sits in the column of node k + 1, the node it moves the path to.  A
recorded walk draws its state noise into its node rows, and each step
overwrites the normal it read with the node it made, so it holds no
noise buffer beside its nodes.  Other walks draw into one reused buffer
per stream, whose rows span an odd number of 64-byte lines (2112 B for
256 steps): a step reads one column of the block, and with rows of
exactly 2048 or 4096 B the elements of that column would fall in two
cache sets or one.  :func:`simulate_to_csv` steps _RECORD_CHUNK (256)
paths at a time into one reused node buffer, which holds their state
noise too, and writes each chunk's rows before it steps the next, so
its memory does not grow with the number of paths.  The Euler step
writes every temporary into a preallocated (paths,) buffer through
ufunc ``out=`` and swaps the old and new state buffers; each noise
block is scaled by sqrt(dt) once, in place.  Both keep the arithmetic
of the plain recursion op for op, so the bits do not depend on them.
"""

from __future__ import annotations

import contextlib
import math
import os
import shutil
import sys
import tempfile
from dataclasses import dataclass, field

import numpy as np

from . import exact, forks, rng
from .constants import DIVERGENCE_THRESHOLD
from .errors import ExploratoryLqError, SimulationDivergedError
from .model import AffineGaussianPolicy, LqModel, derived_coeffs

# Paths per chunk, the most steps per noise block, and the most normals a
# chunk's noise blocks hold across its streams (2048 x 256, 4 MB), for
# Euler and exact paths alike; a walk that draws both streams steps
# _CHUNK // 2 paths per chunk.
_CHUNK = 2048
_STEP_BLOCK = 512
_NOISE_BUDGET = 2 ** 19
# Paths per chunk when simulate_to_csv hands each chunk's nodes to the
# writer: it holds 256 x (n_steps + 1) nodes, whatever n_paths.
_RECORD_CHUNK = 256

# The text NumPy wraps around a float64's Python repr: ("np.float64(", ")")
# on NumPy 2, ("", "") on 1.x.
_F64_OPEN, _F64_CLOSE = repr(np.float64(0.5)).split("0.5")


@dataclass(frozen=True)
class PathGrid:
    """Uniform time grid with step dt and n_steps steps (horizon dt*n_steps)."""

    dt: float
    n_steps: int

    def __post_init__(self):
        if not (rng.is_real(self.dt) and 0 < self.dt <= sys.float_info.max):
            raise ValueError(f"dt must be positive and finite, and a real number, got {self.dt!r}")
        # Stored as a float, so an integer dt gives float times() and horizon.
        object.__setattr__(self, "dt", float(self.dt))
        # An int beyond float range would overflow the product dt * n_steps.
        if not (rng.is_integer(self.n_steps) and 1 <= self.n_steps <= sys.float_info.max):
            raise ValueError("n_steps must be >= 1 and within float range, and an "
                             f"integer, got {self.n_steps!r}")
        if not math.isfinite(self.horizon):
            raise ValueError(
                f"dt * n_steps must be finite, got {self.dt} * {self.n_steps}")

    @property
    def horizon(self) -> float:
        return self.dt * self.n_steps

    def times(self) -> np.ndarray:
        """Node times t_0 = 0, ..., t_n = horizon."""
        return np.arange(self.n_steps + 1) * self.dt


@dataclass(frozen=True)
class DiscountedSums:
    """Per-path left-endpoint Riemann sums used by value estimation.

    weights w_k = exp(-rho t_k) dt for k = 0..n_steps-1; ``x``/``x2``
    accumulate w_k X_k and w_k X_k^2; the z-sums (present only when
    action noise was drawn) accumulate w_k Z_k X_k, w_k Z_k and
    w_k (Z_k^2 - 1) for the per-path action normals Z_k.
    """

    weight_total: float
    x: np.ndarray
    x2: np.ndarray
    zx: np.ndarray | None = None
    z: np.ndarray | None = None
    z2m1: np.ndarray | None = None


@dataclass
class TrajectoryBatch:
    """An Euler-Maruyama batch from :func:`simulate_exploratory` or
    :func:`simulate_to_csv`.

    states is (n_paths, n_steps + 1) when paths were recorded, else
    None; endpoints always holds the final node.  Paths whose state
    exceeded the divergence threshold are flagged (frozen at their last
    finite value) rather than propagated.
    """

    grid: PathGrid
    n_paths: int
    endpoints: np.ndarray
    diverged: np.ndarray
    divergence_step: np.ndarray
    states: np.ndarray | None = None
    checkpoint_states: dict = field(default_factory=dict)
    sums: DiscountedSums | None = None

    def __post_init__(self):
        # A batch records one seeded run; read-only arrays keep every
        # statistic, comparison and CSV taken from it consistent.
        for arr in (self.endpoints, self.diverged, self.divergence_step,
                    self.states, *self.checkpoint_states.values()):
            if arr is not None:
                arr.setflags(write=False)

    @property
    def n_diverged(self) -> int:
        return int(self.diverged.sum())

    def require_no_divergence(self) -> None:
        """Raise SimulationDivergedError, with the count and the earliest
        step, if any path diverged: an estimate over the rest is biased."""
        if self.n_diverged:
            first = int(self.divergence_step[self.diverged].min())
            raise SimulationDivergedError(
                f"{self.n_diverged} of {self.n_paths} paths diverged "
                f"(earliest at step {first}); estimate aborted")

    def _ok(self) -> np.ndarray:
        ok = ~self.diverged
        if not ok.any():
            raise SimulationDivergedError(
                f"all {self.n_paths} paths diverged; no statistic is defined")
        return ok

    def endpoint_mean(self) -> float:
        return float(self.endpoints[self._ok()].mean())

    def endpoint_second_moment(self) -> float:
        e = self.endpoints[self._ok()]
        return float((e * e).mean())

    def checkpoint_stats(self, node: int) -> tuple[float, float, float, float]:
        """(mean, second moment, se_mean, se_m2) at a checkpoint node,
        excluding diverged paths."""
        if not (rng.is_integer(node) and node in self.checkpoint_states):
            raise ValueError(f"node {node!r} was not recorded; the checkpoints are "
                             f"{sorted(self.checkpoint_states)}")
        x = self.checkpoint_states[node][self._ok()]
        n = x.size
        m2 = x * x
        se_mean = float(x.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        se_m2 = float(m2.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        return float(x.mean()), float(m2.mean()), se_mean, se_m2

    def summary(self) -> dict:
        return {
            "n_paths": self.n_paths,
            "diverged": self.n_diverged,
            "mean_T": self.endpoint_mean(),
            "m2_T": self.endpoint_second_moment(),
        }

    def write_csv(self, fh) -> None:
        """Trajectory table with columns t, path_id, x, ordered by
        (path_id, t).  Requires recorded paths.

        t and x are written as NumPy's scalar repr, ``np.float64(0.5)``
        on NumPy 2 and ``0.5`` on 1.x; the text is kept because the
        benchmark pins it.  One ``fh.write`` per path.
        """
        if self.states is None:
            raise ValueError("paths were not recorded in this batch")
        fh.write(_CSV_HEADER)
        _row_writer(fh, self.grid)(0, self.states)


_CSV_HEADER = "t,path_id,x\n"


def _row_writer(fh, grid: PathGrid):
    """``write_rows(lo, nodes)``, which writes the trajectory table's rows
    of paths lo, lo + 1, ... from the rows of ``nodes`` to fh, one
    ``fh.write`` per path."""
    heads = [f"{_F64_OPEN}{t!r}{_F64_CLOSE}," for t in grid.times().tolist()]

    def write_rows(lo: int, nodes: np.ndarray) -> None:
        for p, row in enumerate(nodes, lo):
            mid = f"{p},{_F64_OPEN}"
            fh.write("".join([f"{h}{mid}{x!r}{_F64_CLOSE}\n"
                              for h, x in zip(heads, row.tolist())]))

    return write_rows


def _check_batch(n_paths: int, x0: float, seed: int) -> None:
    """The checks every batch makes before it allocates, creates or
    draws anything."""
    if not rng.is_integer(n_paths):
        raise ValueError(f"n_paths must be an integer, got {n_paths!r}")
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    if not (rng.is_real(x0) and math.isfinite(x0)):
        raise ValueError(f"x0 must be finite, and a real number, got {x0!r}")
    if not rng.valid_seed(seed):
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")


def _node_array(n_paths: int, n_steps: int) -> np.ndarray:
    """Uninitialized (n_paths, n_steps + 1) array for every node of every
    path; ExploratoryLqError when it cannot be allocated."""
    try:
        return np.empty((n_paths, n_steps + 1))
    except (ValueError, MemoryError) as exc:
        raise ExploratoryLqError(
            f"{n_paths} paths x {n_steps + 1} nodes of float64 cannot be "
            f"allocated ({exc})") from None


def _chunk_ranges(n_paths: int, width: int):
    return [(lo, min(lo + width, n_paths)) for lo in range(0, n_paths, width)]


def _block_steps(m: int, streams: int) -> int:
    """Steps per noise block for a chunk of m paths drawing ``streams``
    streams: _STEP_BLOCK, or fewer where the blocks would hold more than
    _NOISE_BUDGET normals, cut to a multiple of 4 (one Philox block)."""
    cap = _NOISE_BUDGET // (m * max(1, streams))
    return min(_STEP_BLOCK, cap - cap % 4)


def _noise_blocks(seed: int, lo: int, m: int, n_steps: int, width: int,
                  stream=rng.STATE_STREAM, nodes: np.ndarray | None = None):
    """Yield (k0, block) per ``width`` steps: normal k0 + j of paths
    lo..lo+m-1 in block[:, j + 1], the column of the node it moves the
    path to; column 0, which the draw leaves as it is, is node k0's.
    Given a recorded walk's (m, n_steps + 1) node rows, block is
    nodes[:, k0:k0 + n + 1]; otherwise one reused buffer whose rows span
    an odd number of 64-byte lines, so the elements of a column
    block[:, j] fall in every cache set, not in one or two."""
    width = min(width, n_steps)
    if nodes is None:
        buf = np.empty((m, (-(-(width + 1) // 8) | 1) * 8))
    for k0 in range(0, n_steps, width):
        n = min(width, n_steps - k0)
        block = buf[:, :n + 1] if nodes is None else nodes[:, k0:k0 + n + 1]
        rng.normal_block(seed, lo, m, n, stream=stream, first_step=k0, out=block[:, 1:])
        yield k0, block


class _EulerBatch:
    """The Euler kernel: one batch of :func:`simulate_exploratory`'s
    dynamics, stepped a chunk of paths at a time.  ``step(lo, hi,
    nodes)`` runs paths lo..hi-1 over the whole grid and, when ``nodes``
    is given, writes node k of path lo + i to ``nodes[i, k]``, over the
    normal it was made from; ``batch(states)`` gathers every path's
    results.  The inputs are checked before any noise is drawn.
    """

    def __init__(self, model: LqModel, policy: AffineGaussianPolicy, x0: float,
                 grid: PathGrid, seed: int, n_paths: int, checkpoints: tuple = (),
                 discount_rate: float | None = None, action_noise: bool = False):
        _check_batch(n_paths, x0, seed)
        if action_noise and discount_rate is None:
            raise ValueError("action_noise=True requires discount_rate")
        if discount_rate is not None and not (rng.is_real(discount_rate)
                                              and 0 <= discount_rate < math.inf):
            raise ValueError("discount_rate must be finite and >= 0, and a real "
                             f"number, got {discount_rate!r}")
        k_steps = grid.n_steps
        if not all(rng.is_integer(c) and 0 <= c <= k_steps for c in checkpoints):
            raise ValueError(f"checkpoints must be integer nodes in [0, {k_steps}]: {checkpoints}")
        self.x0, self.grid, self.seed, self.n_paths = x0, grid, seed, n_paths
        self.action_noise = action_noise
        self.endpoints = np.empty(n_paths)
        self.diverged = np.zeros(n_paths, dtype=bool)
        self.div_step = np.full(n_paths, -1, dtype=np.int64)
        self.cp_states = {int(c): np.empty(n_paths) for c in sorted(set(checkpoints))}
        self.weights = self.w_list = None
        if discount_rate is not None:
            self.weights = np.exp(-discount_rate * grid.times()[:-1]) * grid.dt
            self.w_list = self.weights.tolist()
            self.sums = np.zeros((5 if action_noise else 2, n_paths))
        coeffs = derived_coeffs(model, policy)
        # With b1 = b2 = c1 = 0 the volatility term is +-0.0, and adding it
        # moves a node only when x + drift is -0.0, which needs x = -0.0: a
        # walk from x0 = -0.0.  Any other such walk draws no state noise.
        self.state_noise = (not coeffs.b1 == coeffs.b2 == coeffs.c1 == 0
                            or (x0 == 0 and math.copysign(1.0, x0) < 0))
        # 0-d float64 operands: a ufunc call costs less with one than with a
        # Python float, for the same result.
        self.operands = tuple(
            np.array(v, dtype=np.float64) for v in
            (coeffs.a1, coeffs.a2, coeffs.b1, coeffs.b2, coeffs.c1, grid.dt, 1.0))

    def step(self, lo: int, hi: int, nodes: np.ndarray | None = None) -> None:
        m = hi - lo
        x0, seed, k_steps = self.x0, self.seed, self.grid.n_steps
        sq_dt = math.sqrt(self.grid.dt)
        a1, a2, b1, b2, c1, dt, one = self.operands
        state_noise, action_noise = self.state_noise, self.action_noise
        cp_states, weights, w_list = self.cp_states, self.weights, self.w_list
        width = _block_steps(m, state_noise + action_noise)
        if state_noise:
            blocks = _noise_blocks(seed, lo, m, k_steps, width, nodes=nodes)
        if action_noise:
            action_blocks = _noise_blocks(seed, lo, m, k_steps, width, rng.ACTION_STREAM)
        # x holds node k and xn receives node k + 1; every other per-step
        # temporary has its own (m,) buffer.
        x, xn, drift, vol, t, wz = (np.empty(m) for _ in range(6))
        x.fill(x0)
        alive = np.ones(m, dtype=bool)
        frozen = False
        dstep = np.full(m, -1, dtype=np.int64)
        if weights is not None:
            s_x, s_x2 = self.sums[:2, lo:hi]
            if action_noise:
                s_zx, s_z, s_z2 = self.sums[2:, lo:hi]
        record = nodes is not None
        if record:
            nodes[:, 0] = x
        for k0 in range(0, k_steps, width):
            if state_noise:
                z = next(blocks)[1][:, 1:]
                z *= sq_dt                    # the increments z sqrt(dt)
            if action_noise:
                za = next(action_blocks)[1][:, 1:]
            for j in range(min(width, k_steps - k0)):
                k = k0 + j
                if k in cp_states:
                    cp_states[k][lo:hi] = x
                if weights is not None:
                    w = w_list[k]
                    np.multiply(x, w, t)      # w x
                    s_x += t
                    t *= x
                    s_x2 += t
                    if action_noise:
                        zk = za[:, j]
                        np.multiply(zk, w, wz)
                        np.multiply(wz, x, t)
                        s_zx += t
                        s_z += wz
                        np.multiply(zk, zk, t)
                        t -= one
                        t *= w
                        s_z2 += t
                np.multiply(x, a1, drift)
                drift += a2
                drift *= dt
                np.add(x, drift, xn)          # x + (a1 x + a2) dt
                if state_noise:
                    np.multiply(x, b1, vol)
                    vol += b2
                    np.multiply(vol, vol, vol)
                    vol += c1
                    np.sqrt(vol, vol)
                    vol *= z[:, j]
                    xn += vol
                np.abs(xn, t)
                # A NaN fails the max test too and takes the full path.
                if not frozen and t.max() <= DIVERGENCE_THRESHOLD:
                    x, xn = xn, x
                else:
                    bad = alive & ~(t <= DIVERGENCE_THRESHOLD)
                    if bad.any():
                        dstep[bad] = k + 1
                        alive &= ~bad
                        frozen = True
                    np.copyto(x, xn, where=alive)
                if record:
                    nodes[:, k + 1] = x
        if k_steps in cp_states:
            cp_states[k_steps][lo:hi] = x
        self.endpoints[lo:hi] = x
        self.diverged[lo:hi] = ~alive
        self.div_step[lo:hi] = dstep

    def batch(self, states: np.ndarray | None = None) -> TrajectoryBatch:
        sums = None
        if self.weights is not None:
            sums = DiscountedSums(float(self.weights.sum()), *self.sums)
        return TrajectoryBatch(
            grid=self.grid, n_paths=self.n_paths, endpoints=self.endpoints,
            diverged=self.diverged, divergence_step=self.div_step, states=states,
            checkpoint_states=self.cp_states, sums=sums)


def simulate_exploratory(model: LqModel, policy: AffineGaussianPolicy,
                         x0: float, grid: PathGrid, seed: int, n_paths: int, *,
                         record_paths: bool = True,
                         checkpoints: tuple = (),
                         discount_rate: float | None = None,
                         action_noise: bool = False,
                         parallelism: int = 1) -> TrajectoryBatch:
    """Euler-Maruyama batch of the policy-averaged (exploratory) dynamics
    dX = (a1 X + a2) dt + sqrt((b1 X + b2)^2 + c1) dW, coefficients from
    :func:`~exploratory_lq.model.derived_coeffs`.  A policy with variance
    zero gives c1 = 0: the classical SDE under u(x) = slope*x + intercept.

    ``record_paths`` keeps every node in ``states`` (ExploratoryLqError,
    before any noise is drawn, when that array cannot be allocated) and
    ``checkpoints`` the listed nodes in ``checkpoint_states``;
    ``discount_rate`` adds the :class:`DiscountedSums`, and
    ``action_noise`` (which needs it) their sums over an independent
    per-path action stream.  ``parallelism`` is accepted for
    compatibility and has no effect.
    """
    run = _EulerBatch(model, policy, x0, grid, seed, n_paths, checkpoints,
                      discount_rate, action_noise)
    states = _node_array(n_paths, grid.n_steps) if record_paths else None
    # One chunk at a time, so a chunk's noise buffers are freed before
    # the next chunk's are allocated; a walk that draws both streams
    # shares _CHUNK's budget between them.
    width = max(1, _CHUNK // 2) if run.state_noise and action_noise else _CHUNK
    for lo, hi in _chunk_ranges(n_paths, width):
        run.step(lo, hi, None if states is None else states[lo:hi])
    return run.batch(states)


def simulate_to_csv(model: LqModel, policy: AffineGaussianPolicy, x0: float,
                    grid: PathGrid, seed: int, n_paths: int, path) -> TrajectoryBatch:
    """The batch of :func:`simulate_exploratory` with ``record_paths``,
    its nodes written to the file ``path`` as
    :meth:`TrajectoryBatch.write_csv` writes them, byte for byte; the
    returned batch keeps no ``states``.

    Paths are stepped _RECORD_CHUNK at a time into one reused node
    buffer, and each chunk's rows are written before the next chunk is
    stepped, so memory grows with n_steps, not with n_paths.  The inputs
    and the room for that buffer (ExploratoryLqError) are checked before
    any noise is drawn and before the file is created.

    The chunks are split into contiguous parts (:func:`_record_parts`),
    which :func:`forks.fork_parts` walks side by side: the caller walks the
    first part into ``path``, a forked child each later part into an
    unlinked temporary file beside it, and sends back its paths'
    endpoints and divergence flags; the caller then appends the parts in
    path order.  A path's values depend only on (seed, path), so the
    split does not change a byte.
    """
    run = _EulerBatch(model, policy, x0, grid, seed, n_paths)
    buf = _node_array(min(_RECORD_CHUNK, n_paths), grid.n_steps)
    per_path = (run.endpoints, run.diverged, run.div_step)
    parts = _record_parts(n_paths)

    def walk(chunks, fh):
        write_rows = _row_writer(fh, grid)
        for lo, hi in chunks:
            nodes = buf[:hi - lo]
            run.step(lo, hi, nodes)
            write_rows(lo, nodes)

    def walk_part(i):
        if i == 0:
            return walk(parts[0], fh)
        with open(rows[i].fileno(), "w", encoding="utf-8", closefd=False) as out:
            walk(parts[i], out)
        return tuple(a[_paths_of(parts[i])] for a in per_path)

    def describe(i):
        paths = _paths_of(parts[i])
        return f"the process simulating paths {paths.start}-{paths.stop - 1}"

    directory = os.path.dirname(os.path.abspath(path))
    with open(path, "w", encoding="utf-8") as fh, contextlib.ExitStack() as files:
        fh.write(_CSV_HEADER)
        fh.flush()                      # so no child inherits the header
        rows = [None, *(files.enter_context(tempfile.TemporaryFile(dir=directory))
                        for _ in parts[1:])]
        returned = forks.fork_parts(walk_part, range(len(parts)), describe)
        fh.flush()
        for i in range(1, len(parts)):
            for a, values in zip(per_path, returned[i]):
                a[_paths_of(parts[i])] = values
            rows[i].seek(0)
            shutil.copyfileobj(rows[i], fh.buffer)
    return run.batch()


def _paths_of(chunks: list) -> slice:
    return slice(chunks[0][0], chunks[-1][1])


def _record_parts(n_paths: int) -> list:
    """:func:`simulate_to_csv`'s record chunks of n_paths paths, in
    :func:`forks.split_parts`."""
    return forks.split_parts(_chunk_ranges(n_paths, _RECORD_CHUNK))


def _exact_blocks(build, seed: int, n_paths: int, n_steps: int):
    """Yield (lo, k0, nodes) per chunk and noise block: the builder's
    nodes k0..k0+n of paths lo..lo+m-1, in a buffer reused across blocks."""
    for lo, hi in _chunk_ranges(n_paths, _CHUNK):
        for k0, nodes in build(_noise_blocks(seed, lo, hi - lo, n_steps,
                                             _block_steps(hi - lo, 1))):
            yield lo, k0, nodes


def exact_batch(model: LqModel, x0: float, grid: PathGrid, seed: int,
                n_paths: int, method: str, value=None) -> np.ndarray:
    """Read-only (n_paths, n_steps + 1) array whose row p is the exact
    path of (seed, p), for method 'd0', 'c0' or 'doss_saussman' (which
    needs the value function), on the shared per-path Brownian streams.

    The path count, x0, the method, its regime and the room for every
    node are checked before any noise is drawn.  Besides that array, a
    chunk holds one noise block and its builder's buffers at a time.
    """
    _check_batch(n_paths, x0, seed)
    build, _ = exact.builder(model, x0, grid, method, value)
    states = _node_array(n_paths, grid.n_steps)
    for lo, k0, nodes in _exact_blocks(build, seed, n_paths, grid.n_steps):
        states[lo:lo + len(nodes), k0:k0 + nodes.shape[1]] = nodes
    states.setflags(write=False)
    return states


def strong_errors(model: LqModel, x0: float, grid: PathGrid, seed: int,
                  n_paths: int, method: str, value=None) -> tuple[float, float, float]:
    """(rms, max, mean) of the pathwise endpoint deviation
    |X_euler(T) - X_exact(T)| between ``method``'s exact paths and the
    Euler batch of the process they solve, path p of each on the noise
    of (seed, p).  d0 and c0 solve :func:`exact.state_independent_policy`'s
    process, 'doss_saussman' the optimum under ``value``.

    The path count, x0, the method, its regime and the value are
    checked before any noise is drawn; a diverged Euler path raises
    SimulationDivergedError before any exact path is built.  The exact
    paths are walked one noise block per chunk at a time and only their
    endpoints kept, so memory does not grow with n_steps.
    """
    _check_batch(n_paths, x0, seed)
    build, policy = exact.builder(model, x0, grid, method, value)
    euler = simulate_exploratory(model, policy, x0, grid, seed, n_paths,
                                 record_paths=False)
    euler.require_no_divergence()
    exact_ends = np.empty(n_paths)
    for lo, _, nodes in _exact_blocks(build, seed, n_paths, grid.n_steps):
        exact_ends[lo:lo + len(nodes)] = nodes[:, -1]
    diff = np.abs(euler.endpoints - exact_ends)
    return (float(np.sqrt((diff * diff).mean())), float(diff.max()),
            float(diff.mean()))
