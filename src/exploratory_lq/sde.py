"""Simulation of the controlled state dynamics and reference paths.

Under an affine Gaussian feedback policy the policy-averaged state
follows

    dX = (a1 X + a2) dt + sqrt((b1 X + b2)^2 + c1) dW,

which Euler-Maruyama discretizes on a uniform grid.  A policy with
variance zero is a deterministic feedback, so the classical controlled
SDE is the same call: pass ``Solution.classical_policy``.  Three
reference constructions provide oracles on shared Brownian increments.
The Ornstein-Uhlenbeck recursion for c = 0 (exact Gaussian transitions
driven by the same standardized increments) is exact in law at the
nodes.  The lognormal-type solution for d = 0 and the Doss-Saussmann
transform X = F(W, Y) for the general state-dependent optimum, with Y
solved per path by a fixed-step RK4 integrator, are order-1 reference
paths: d0 takes its time integral by the trapezoid rule and
Doss-Saussmann reads W linearly interpolated inside a step, so each
leaves a Brownian-bridge error of order dt^{3/2} per step.  Their
pathwise error, of order dt, stays well below the order-1/2 Euler
deviation that :func:`strong_errors` measures: it steps each method
beside the Euler batch of the process it solves, on the same noise, and
returns their endpoint deviation.  The "exact" in the function and
method names is kept.

Randomness is counter-based per path (see :mod:`exploratory_lq.rng`),
so a path's values depend only on (seed, path_index), never on the
batch size or the chunk it was stepped in.  Every sample path, Euler or
exact, is walked the same way: 2048 paths per chunk, wide enough that
NumPy's per-call overhead is small against each step's work, with their
noise drawn in blocks of 512 steps into one reused buffer per stream.
An Euler walk that also draws action noise steps 1024 paths per chunk,
so its two streams' buffers together hold what one holds: at most about
8 MB of normals in all.  The buffer's rows are padded by 8 columns: a
step reads one column of the block, and with rows of exactly 4096 B
every element of that column would fall in the same cache set.
The exact builders carry what crosses a block edge and yield each
block's nodes in one buffer per chunk, reused across blocks:
:func:`exact_batch` copies them into its read-only array, and
:func:`strong_errors` keeps only the endpoints, so its memory does not
grow with the number of steps.  :func:`simulate_to_csv` likewise
steps _RECORD_CHUNK (256) paths at a time into one reused node buffer
and writes each chunk's rows before it steps the next, so its memory
does not grow with the number of paths.  The Euler step writes
every temporary into a preallocated (paths,) buffer through ufunc
``out=`` and swaps the old and new state buffers; each noise block is
scaled by sqrt(dt) once, in place.  Both keep the arithmetic of the
plain recursion op for op, so the bits do not depend on them.  The
per-step work is short NumPy calls, and formatting the CSV is float
``repr``; both hold the interpreter lock, so threads do not speed them
up, but processes do.  :func:`fork_parts`, the one fork helper, runs a
list of parts side by side: the caller runs one, a forked child each
of the others, and the results come back in part order.
:func:`simulate_to_csv` hands it one contiguous part of its record
chunks per usable CPU, walks the first itself and appends each child's
rows in path order; ``explq exact-vs-euler`` hands it its dt levels and
keeps the finest.  ``rng.normal_block`` converts a block's finished row
tiles on a helper thread, which releases the lock, while the caller
draws the next rows.
"""

from __future__ import annotations

import contextlib
import math
import os
import pickle
import shutil
import signal
import sys
import tempfile
import threading
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .closed_form import policy_from_value
from .constants import ABS_TOL, DIVERGENCE_THRESHOLD, DS_DEFECT_TOL, ODE_SUBSTEPS
from .errors import (ExploratoryLqError, NumericalError, SimulationDivergedError,
                     UnsupportedRegimeError)
from .model import AffineGaussianPolicy, DerivedCoeffs, LqModel, derived_coeffs

# Paths per chunk, and steps per noise block within a chunk, for Euler
# and exact paths alike: a chunk's noise blocks hold at most 2048 x 512
# normals (8 MB) in all, so a walk that draws two streams steps
# _CHUNK // 2 paths per chunk.
_CHUNK = 2048
_STEP_BLOCK = 512
# Paths per chunk when simulate_to_csv hands each chunk's nodes to the
# writer: it holds 256 x (n_steps + 1) nodes, whatever n_paths.
_RECORD_CHUNK = 256
# Paths per tile of the Doss-Saussmann node check.
_CHECK_ROWS = 16

# The text NumPy wraps around a float64's Python repr: ("np.float64(", ")")
# on NumPy 2, ("", "") on 1.x.
_F64_OPEN, _F64_CLOSE = repr(np.float64(0.5)).split("0.5")


@dataclass(frozen=True)
class PathGrid:
    """Uniform time grid with step dt and n_steps steps (horizon dt*n_steps)."""

    dt: float
    n_steps: int

    def __post_init__(self):
        # bool subclasses int: True would pass as a step of 1.
        if isinstance(self.dt, bool):
            raise ValueError(f"dt must be a number, not a bool, got {self.dt!r}")
        if not 0 < self.dt <= sys.float_info.max:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
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
    # bool subclasses int: True would pass as 1.0.
    if isinstance(x0, bool):
        raise ValueError(f"x0 must be a number, not a bool, got {x0!r}")
    if not math.isfinite(x0):
        raise ValueError(f"x0 must be finite, got {x0}")
    rng.check_seed(seed)


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


def _noise_blocks(seed: int, lo: int, m: int, n_steps: int, stream=rng.STATE_STREAM):
    """Yield (k0, z) per _STEP_BLOCK steps: z holds normals k0..k0+n-1 of
    paths lo..lo+m-1, drawn into one reused buffer.  Its rows are padded
    by 8 columns: a 512-step row of exactly 4096 B would put every
    element of a column z[:, j] in the same cache set."""
    width = min(_STEP_BLOCK, n_steps)
    buf = np.empty((m, width + 8))
    for k0 in range(0, n_steps, width):
        n = min(width, n_steps - k0)
        yield k0, rng.normal_block(seed, lo, m, n, stream=stream, first_step=k0,
                                   out=buf[:, :n])


class _EulerBatch:
    """The Euler kernel: one batch of :func:`simulate_exploratory`'s
    dynamics, stepped a chunk of paths at a time.  ``step(lo, hi,
    nodes)`` runs paths lo..hi-1 over the whole grid and, when ``nodes``
    is given, writes node k of path lo + i to ``nodes[i, k]``;
    ``batch(states)`` gathers every path's results.  The inputs are
    checked before any noise is drawn.
    """

    def __init__(self, model: LqModel, policy: AffineGaussianPolicy, x0: float,
                 grid: PathGrid, seed: int, n_paths: int, checkpoints: tuple = (),
                 discount_rate: float | None = None, action_noise: bool = False):
        _check_batch(n_paths, x0, seed)
        if action_noise and discount_rate is None:
            raise ValueError("action_noise=True requires discount_rate")
        if discount_rate is not None and not 0 <= discount_rate < math.inf:
            raise ValueError(f"discount_rate must be finite and >= 0, got {discount_rate!r}")
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
        action_noise, cp_states = self.action_noise, self.cp_states
        weights, w_list = self.weights, self.w_list
        blocks = _noise_blocks(seed, lo, m, k_steps)
        if action_noise:
            action_blocks = _noise_blocks(seed, lo, m, k_steps, rng.ACTION_STREAM)
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
        for k0, z in blocks:
            z *= sq_dt                        # the increments z sqrt(dt)
            if action_noise:
                za = next(action_blocks)[1]
            for j in range(z.shape[1]):
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
    # the next chunk's are allocated; their width shares _CHUNK's budget
    # among the streams the walk draws.
    streams = 2 if action_noise else 1
    for lo, hi in _chunk_ranges(n_paths, max(1, _CHUNK // streams)):
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
    which :func:`fork_parts` walks side by side: the caller walks the
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
        returned = fork_parts(walk_part, range(len(parts)), describe)
        fh.flush()
        for i in range(1, len(parts)):
            for a, values in zip(per_path, returned[i]):
                a[_paths_of(parts[i])] = values
            rows[i].seek(0)
            shutil.copyfileobj(rows[i], fh.buffer)
    return run.batch()


def _paths_of(chunks: list) -> slice:
    return slice(chunks[0][0], chunks[-1][1])


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def split_parts(items) -> list:
    """``items`` in contiguous parts, the later ones the larger: one per
    usable CPU and at most one per item, or a single part where the
    process cannot fork (no ``os.fork``, or another Python thread
    running)."""
    items = list(items)
    forkable = hasattr(os, "fork") and threading.active_count() == 1
    n = min(_usable_cpus(), len(items)) if forkable else 1
    return [items[i * len(items) // n:(i + 1) * len(items) // n] for i in range(n)]


def _record_parts(n_paths: int) -> list:
    """:func:`simulate_to_csv`'s record chunks of n_paths paths, in
    :func:`split_parts`."""
    return split_parts(_chunk_ranges(n_paths, _RECORD_CHUNK))


def fork_parts(work, parts, describe, mine: int = 0) -> list:
    """``[work(part) for part in parts]``, the parts run side by side:
    the caller runs ``parts[mine]`` and a forked child each other part,
    and the results come back in part order.  A single part runs in the
    caller alone.

    The parts are in the order a serial loop would run them, and a
    failure raises what that loop would have: the error of the first
    part that fails.  A child's library error (ExploratoryLqError) is
    raised as it is; any other exception in a child, or a child that
    ends abnormally, raises ExploratoryLqError naming ``describe(part)``.
    Every child is reaped before this returns or raises, and any
    exception in the caller that is not a library error, an interrupt
    included, kills the children first.
    """
    parts = list(parts)
    children = [None if i == mine else _PartChild(describe(part))
                for i, part in enumerate(parts)]
    try:
        for child, part in zip(children, parts):
            if child is not None:
                child.start(work, part)
        try:
            own = work(parts[mine])
        except ExploratoryLqError:
            for child in children[:mine]:   # parts a serial loop runs first
                child.result()
            raise
        return [own if child is None else child.result() for child in children]
    finally:
        for child in children:
            if child is not None:
                child.close()


class _PartChild:
    """A forked process that runs ``work(part)`` for :func:`fork_parts`:
    ``start`` forks it, ``result`` waits for it and returns its result
    or raises its error, ``close`` kills it if it was not reaped and
    frees its pipe."""

    def __init__(self, name: str):
        self.name = name
        self.pid = self.pipe = None

    def start(self, work, part) -> None:
        self.pipe, send = os.pipe()
        # Flushed, so no buffered text is inherited by the child.
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
        try:
            with warnings.catch_warnings():
                # Python 3.12+ warns on a fork while any OS thread runs, a
                # BLAS library's idle pool included; the child calls no BLAS.
                warnings.simplefilter("ignore", DeprecationWarning)
                self.pid = os.fork()
            if self.pid == 0:
                self._serve(work, part, send)
        finally:
            os.close(send)

    @staticmethod
    def _serve(work, part, send: int) -> None:
        """The child: run the part, send (True, result), (False, library
        error) or (False, the error's text) through the pipe and leave
        through ``os._exit``, never returning to the caller's frames."""
        code = 1
        try:
            try:
                payload = pickle.dumps((True, work(part)))
            except ExploratoryLqError as exc:
                payload = pickle.dumps((False, exc))
            except BaseException as exc:
                payload = pickle.dumps((False, f"{type(exc).__name__}: {exc}"))
            with open(send, "wb", closefd=False) as pipe:
                pipe.write(payload)
            code = 0
        finally:
            os._exit(code)

    def result(self):
        with open(self.pipe, "rb", closefd=False) as pipe:
            payload = pipe.read()
        status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        self.pid = None
        if status:
            raise ExploratoryLqError(f"{self.name} ended with status {status}")
        ok, value = pickle.loads(payload)
        if ok:
            return value
        if isinstance(value, ExploratoryLqError):
            raise value
        raise ExploratoryLqError(f"{self.name} failed: {value}")

    def close(self) -> None:
        if self.pid:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
        if self.pipe is not None:
            os.close(self.pipe)


# ---------------------------------------------------------------------------
# Exact reference paths.  d0 and c0 solve the state-independent process
#     dX = (a X - b q / n) dt + sqrt((c X - d q / n)^2 + lam d^2 / n) dW;
# Doss-Saussmann solves the state-dependent optimum.  Each builder checks
# its regime once and returns the generator build(blocks), which walks
# one chunk's noise blocks, carries what crosses a block edge and yields
# (k0, nodes) per block: nodes k0..k0+n of the chunk's paths (rows), in
# one (paths, width + 1) buffer reused across blocks.  Column 0 of the
# first block is node 0, of a later block the node carried over.
# ---------------------------------------------------------------------------

def state_independent_policy(model: LqModel) -> AffineGaussianPolicy:
    """N(-q/n, lam/n) at every state: the policy whose process the d0 and
    c0 exact paths solve.  It is the model's optimum only when
    m = r = p = 0."""
    return AffineGaussianPolicy(0.0, -model.q / model.n, model.lam / model.n)


def _brownian_blocks(blocks, dt: float):
    """Yield (k0, w) per noise block (k0, z): w holds W at nodes k0..k0+n
    of the block's paths (rows), column 0 the last node before (W_0 = 0),
    in one buffer reused across blocks."""
    buf = last = None
    for k0, z in blocks:
        if buf is None:
            buf = np.zeros((len(z), z.shape[1] + 1))
        else:
            buf[:, 0] = last
        w = buf[:, :z.shape[1] + 1]
        np.multiply(z, math.sqrt(dt), w[:, 1:])
        np.cumsum(w, axis=1, out=w)
        last = w[:, -1]
        yield k0, w


def _d0_builder(model: LqModel, x0: float, grid: PathGrid):
    """Order-1 reference path: the exact solution on the Brownian node
    values,

    X_t = x0 e^{theta t + s|c| W_t}
          - (bq/n) int_0^t e^{theta (t-u) + s|c|(W_t - W_u)} du,
    theta = a - c^2/2, s = +1 on the {x0 >= 0, bq <= 0} branch and
    s = -1 on the mirror branch; the time integral uses the trapezoid
    rule on the grid nodes, whose Brownian-bridge error makes the path
    pathwise order 1 in dt.  Every node, node 0 and each block's first
    included, comes from the formula.
    """
    if abs(model.d) > ABS_TOL:
        raise ValueError("the d0 exact path requires d = 0")
    bq = model.b * model.q
    if x0 >= 0 and bq <= ABS_TOL:
        sgn = 1.0
    elif x0 <= 0 and bq >= -ABS_TOL:
        sgn = -1.0
    else:
        raise UnsupportedRegimeError(
            f"no explicit solution for x0={x0!r} with b*q={bq!r}; "
            "supported regimes are (x0 >= 0, b*q <= 0) and (x0 <= 0, b*q >= 0)")
    theta = model.a - model.c ** 2 / 2.0
    scw = sgn * abs(model.c)
    a2 = -bq / model.n
    dt, half_dt = grid.dt, grid.dt / 2.0

    def build(blocks):
        g_buf = cum_buf = None
        integral = 0.0                        # up to the block's first node
        for k0, w in _brownian_blocks(blocks, dt):
            if g_buf is None:
                g_buf, cum_buf = np.empty_like(w), np.empty_like(w)
            g, cum = g_buf[:, :w.shape[1]], cum_buf[:, :w.shape[1]]
            # theta t at the block's nodes, as grid.times() spells t.
            theta_t = np.arange(k0, k0 + w.shape[1]) * dt
            theta_t *= theta
            np.multiply(w, scw, g)
            np.subtract(-theta_t, g, g)
            np.exp(g, g)                      # e^{-theta t - s|c| W}
            cum[:, 0] = integral
            np.add(g[:, :-1], g[:, 1:], cum[:, 1:])
            cum[:, 1:] *= half_dt
            np.cumsum(cum, axis=1, out=cum)
            integral = cum[:, -1].copy()
            np.multiply(w, scw, g)
            g += theta_t
            np.exp(g, g)                      # e^{theta t + s|c| W}
            cum *= a2
            cum += x0
            cum *= g                          # the nodes
            yield k0, cum

    return build


def _c0_builder(model: LqModel, x0: float, grid: PathGrid):
    """Ornstein-Uhlenbeck recursion with exact Gaussian transitions.

    The per-step update scales the standardized Brownian increment by
    the exact transition standard deviation, so the path is exact in law
    at every node while the noise stays coupled to the Euler scheme.
    """
    if abs(model.c) > ABS_TOL:
        raise ValueError("the c0 exact path requires c = 0")
    sigma = abs(model.d) / model.n * math.sqrt(model.q ** 2 + model.lam * model.n)
    a2 = -model.b * model.q / model.n
    a = model.a
    dt = grid.dt
    if abs(a) > ABS_TOL:
        eah = math.exp(a * dt)
        shift = a2 * math.expm1(a * dt) / a
        sdh = sigma * math.sqrt(math.expm1(2.0 * a * dt) / (2.0 * a))
    else:
        eah = 1.0
        shift = a2 * dt
        sdh = sigma * math.sqrt(dt)

    def build(blocks):
        buf = x = None
        for k0, z in blocks:
            if buf is None:
                buf = np.empty((len(z), z.shape[1] + 1))
                x = np.full(len(z), float(x0))
            nodes = buf[:, :z.shape[1] + 1]
            nodes[:, 0] = x
            for j in range(z.shape[1]):
                x = eah * x + shift + sdh * z[:, j]
                nodes[:, j + 1] = x
            yield k0, nodes

    return build


def doss_saussman_terms(coeffs: DerivedCoeffs, z, y):
    """(F, dF/dz, dF/dy) at (z, y) from one arcsinh, sinh and cosh: the
    pathwise transform X = F(W, Y) for the state SDE
    dX = (a1 X + a2) dt + sqrt((b1 X + b2)^2 + c1) dW with ``coeffs``,
    which needs c1 > 0 and b1 != 0.

    F(z, y) = (sqrt(c1)/|b1|) sinh(|b1| z + asinh((|b1|/sqrt(c1)) (y + b2/b1))) - b2/b1
    satisfies dF/dz = sqrt((b1 F + b2)^2 + c1) with F(0, y) = y,
    and Y follows the per-path ODE dY/dt = G(W_t, Y_t) with
    G = (a1 F + a2 - b1/2 (b1 F + b2)) / (dF/dy).
    """
    root, ac, shift = math.sqrt(coeffs.c1), abs(coeffs.b1), coeffs.b2 / coeffs.b1
    w = ac / root * (y + shift)
    arg = ac * z + np.arcsinh(w)
    cosh = np.cosh(arg)
    return (root / ac * np.sinh(arg) - shift, root * cosh,
            cosh / np.sqrt(1.0 + w * w))


def _doss_saussman_builder(model: LqModel, x0: float, grid: PathGrid,
                           policy: AffineGaussianPolicy):
    """Order-1 reference path of the process under the optimal
    ``policy``: integrate Y per path (RK4, ODE_SUBSTEPS steps per grid
    step, W linearly interpolated inside steps, which makes the path
    pathwise order 1 in dt) and map nodes through F.  Raises ValueError
    unless d != 0 and c1 > 0, and UnsupportedRegimeError for a vanishing
    volatility slope b1.  Verifies the defining diffusion ODE of F at
    every node to DS_DEFECT_TOL, and raises NumericalError on a larger
    or non-finite defect.

    Each step interpolates every |b1| W its RK4 stages read in one pass,
    and each stage is a few NumPy calls into preallocated (n_paths,)
    rows; a noise block's nodes go through F and the defect check in
    tiles of _CHECK_ROWS paths, and the block raises on the worst defect
    of all its tiles.  The arithmetic is the per-node recursion's, op
    for op.
    """
    c = derived_coeffs(model, policy)
    if abs(model.d) <= ABS_TOL or c.c1 <= 0:
        raise ValueError("Doss-Saussmann path requires d != 0")
    if abs(c.b1) <= ABS_TOL:
        raise UnsupportedRegimeError(
            "effective volatility slope vanishes; use the c = 0 exact path")
    a1, a2, b1, b2 = c.a1, c.a2, c.b1, c.b2
    root, ac, shift = math.sqrt(c.c1), abs(b1), b2 / b1
    to_w, to_f, half_b1 = ac / root, root / ac, b1 / 2.0
    h = grid.dt / ODE_SUBSTEPS
    half_h, sixth_h = 0.5 * h, h / 6.0
    # The stage's scalar operands as 0-d float64 arrays: a ufunc call
    # costs less with one than with a Python float, for the same result.
    shift, to_w, to_f, a1, a2, b1, b2, half_b1, ac, h, half_h, sixth_h, one, two = (
        np.array(v, dtype=np.float64) for v in
        (shift, to_w, to_f, a1, a2, b1, b2, half_b1, ac, h, half_h, sixth_h, 1.0, 2.0))
    # Where in a step the stages read W: j/S, (j + 0.5)/S and (j + 1)/S
    # for substep j of S, shared between neighbouring substeps.
    fractions = (np.arange(2 * ODE_SUBSTEPS + 1) * 0.5 / ODE_SUBSTEPS)[:, None]

    def stage(acw, y, out, t_w, t_f):
        """out = G(W, y) for acw = |b1| W; t_w and t_f are work buffers."""
        np.add(y, shift, t_w)
        t_w *= to_w                       # w = |b1|/sqrt(c1) (y + b2/b1)
        np.arcsinh(t_w, t_f)
        t_f += acw                        # arg = |b1| W + asinh(w)
        np.cosh(t_f, out)
        np.sinh(t_f, t_f)
        t_f *= to_f
        t_f -= shift                      # F
        t_w *= t_w
        t_w += one
        np.sqrt(t_w, t_w)
        out /= t_w                        # dF/dy = cosh(arg) / sqrt(1 + w^2)
        np.multiply(t_f, b1, t_w)
        t_w += b2
        t_w *= half_b1
        t_f *= a1
        t_f += a2
        t_f -= t_w                        # a1 F + a2 - b1/2 (b1 F + b2)
        np.divide(t_f, out, out)

    def build(blocks):
        buf = None
        for k0, w in _brownian_blocks(blocks, grid.dt):
            n = w.shape[1] - 1
            if buf is None:
                m = len(w)
                acw = np.empty((fractions.size, m))
                y = np.full(m, float(x0))
                dw, k1, k2, k3, k4, y_in, t_w, t_f = (np.empty(m) for _ in range(8))
                buf = np.empty((m, n + 1))
                buf[:, 0] = x0
            else:
                buf[:, 0] = nodes[:, -1]
            nodes = buf[:, :n + 1]
            for k in range(n):
                np.subtract(w[:, k + 1], w[:, k], dw)
                np.multiply(dw, fractions, acw)
                acw += w[:, k]
                acw *= ac
                for j in range(0, 2 * ODE_SUBSTEPS, 2):
                    zh = acw[j + 1]
                    stage(acw[j], y, k1, t_w, t_f)
                    np.multiply(k1, half_h, y_in)
                    y_in += y
                    stage(zh, y_in, k2, t_w, t_f)
                    np.multiply(k2, half_h, y_in)
                    y_in += y
                    stage(zh, y_in, k3, t_w, t_f)
                    np.multiply(k3, h, y_in)
                    y_in += y
                    stage(acw[j + 2], y_in, k4, t_w, t_f)
                    k2 *= two
                    k1 += k2
                    k3 *= two
                    k1 += k3
                    k1 += k4
                    k1 *= sixth_h
                    y += k1
                nodes[:, k + 1] = y           # replaced by X below
            # F and the defect check in row tiles, so their temporaries
            # stay small; np.max keeps a NaN tile maximum.
            tiles = range(0, m, _CHECK_ROWS)
            worst = np.empty(len(tiles))
            for i, r0 in enumerate(tiles):
                rows = slice(r0, r0 + _CHECK_ROWS)
                x, dfz, _ = doss_saussman_terms(c, w[rows, 1:], nodes[rows, 1:])
                defect = np.abs(dfz - np.sqrt((b1 * x + b2) ** 2 + c.c1))
                worst[i] = (defect / np.maximum(1.0, np.abs(dfz))).max()
                nodes[rows, 1:] = x
            worst = np.max(worst)
            if not worst <= DS_DEFECT_TOL:
                raise NumericalError(
                    "Doss-Saussmann transform violated its defining ODE "
                    f"({worst:.3g}) in steps {k0 + 1}-{k0 + n}")
            yield k0, nodes

    return build


def _exact_builder(model: LqModel, x0: float, grid: PathGrid, method: str, value):
    """(build, policy): the builder of ``method``'s exact paths, its
    regime checked, and the policy whose Euler process they solve."""
    if method == "d0":
        return _d0_builder(model, x0, grid), state_independent_policy(model)
    if method == "c0":
        return _c0_builder(model, x0, grid), state_independent_policy(model)
    if method == "doss_saussman":
        if value is None:
            raise ValueError("doss_saussman batch needs the value function")
        policy = policy_from_value(model, value)
        return _doss_saussman_builder(model, x0, grid, policy), policy
    raise ValueError(f"unknown exact-path method {method!r}")


def _exact_blocks(build, seed: int, n_paths: int, n_steps: int):
    """Yield (lo, k0, nodes) per chunk and noise block: the builder's
    nodes k0..k0+n of paths lo..lo+m-1, in a buffer it reuses."""
    for lo, hi in _chunk_ranges(n_paths, _CHUNK):
        for k0, nodes in build(_noise_blocks(seed, lo, hi - lo, n_steps)):
            yield lo, k0, nodes


def exact_batch(model: LqModel, x0: float, grid: PathGrid, seed: int,
                n_paths: int, method: str, value=None) -> np.ndarray:
    """Read-only (n_paths, n_steps + 1) array whose row p is the exact
    path of (seed, p), for method 'd0', 'c0' or 'doss_saussman' (which
    needs the value function), on the shared per-path Brownian streams.

    The path count, x0, the method, its regime and the room for every
    node are checked before any noise is drawn.  Besides that array, the
    builder holds one noise block's nodes per chunk at a time.
    """
    _check_batch(n_paths, x0, seed)
    build, _ = _exact_builder(model, x0, grid, method, value)
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
    of (seed, p).  d0 and c0 solve :func:`state_independent_policy`'s
    process, 'doss_saussman' the optimum under ``value``.

    The path count, x0, the method, its regime and the value are
    checked before any noise is drawn; a diverged Euler path raises
    SimulationDivergedError before any exact path is built.  The exact
    paths are walked one noise block per chunk at a time and only their
    endpoints kept, so memory does not grow with n_steps.
    """
    _check_batch(n_paths, x0, seed)
    build, policy = _exact_builder(model, x0, grid, method, value)
    euler = simulate_exploratory(model, policy, x0, grid, seed, n_paths,
                                 record_paths=False)
    euler.require_no_divergence()
    exact = np.empty(n_paths)
    for lo, _, nodes in _exact_blocks(build, seed, n_paths, grid.n_steps):
        exact[lo:lo + len(nodes)] = nodes[:, -1]
    diff = np.abs(euler.endpoints - exact)
    return (float(np.sqrt((diff * diff).mean())), float(diff.max()),
            float(diff.mean()))
