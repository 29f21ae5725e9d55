"""Simulation of the controlled state dynamics and exact reference paths.

Under an affine Gaussian feedback policy the policy-averaged state
follows

    dX = (a1 X + a2) dt + sqrt((b1 X + b2)^2 + c1) dW,

which Euler-Maruyama discretizes on a uniform grid.  Setting the policy
variance to zero recovers the classical controlled SDE bit for bit, so
one stepping kernel serves both.  Three exact constructions provide
oracles on shared Brownian increments: the lognormal-type solution for
d = 0, the Ornstein-Uhlenbeck recursion for c = 0 (exact Gaussian
transitions driven by the same standardized increments), and the
Doss-Saussmann transform X = F(W, Y) for the general state-dependent
optimum, with Y solved per path by a fixed-step RK4 integrator.

Randomness is counter-based per path (see :mod:`exploratory_lq.rng`),
so a path's values depend only on (seed, path_index), never on the
batch size or the chunk it was stepped in.  The Euler kernel steps
2048 paths at a time, wide enough that NumPy's per-call overhead is
small against each step's work, and draws their noise in blocks of 512
steps: at most about 8 MB of normals per stream per chunk.  Exact paths
go 512 at a time with the whole horizon in one block, because their
builders need the whole Brownian path.  Chunks run serially: the
per-step work is short NumPy calls that hold the interpreter lock, so
threads do not speed it up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .closed_form import policy_from_value
from .constants import ABS_TOL, DIVERGENCE_THRESHOLD, DS_DEFECT_TOL, ODE_SUBSTEPS
from .errors import (
    GridMismatchError,
    NumericalError,
    SimulationDivergedError,
    UnsupportedRegimeError,
)
from .model import AffineGaussianPolicy, DerivedCoeffs, LqModel, derived_coeffs

# Euler paths per chunk, and steps per noise block within a chunk: a
# block holds at most 2048 x 512 normals (8 MB) per stream.
_CHUNK = 2048
_STEP_BLOCK = 512
# Exact-path paths per chunk.  The builders need a path's whole Brownian
# motion, so each chunk draws its whole horizon in one block.
_EXACT_CHUNK = 512

# The text NumPy wraps around a float64's Python repr: ("np.float64(", ")")
# on NumPy 2, ("", "") on 1.x.
_F64_OPEN, _F64_CLOSE = repr(np.float64(0.5)).split("0.5")


@dataclass(frozen=True)
class PathGrid:
    """Uniform time grid with step dt and n_steps steps (horizon dt*n_steps)."""

    dt: float
    n_steps: int

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")

    @property
    def horizon(self) -> float:
        return self.dt * self.n_steps

    def times(self) -> np.ndarray:
        """Node times t_0 = 0, ..., t_n = horizon."""
        return np.arange(self.n_steps + 1) * self.dt


@dataclass(frozen=True)
class BrownianPath:
    """One discretized Brownian motion, reproducible from (seed, path_index)."""

    grid: PathGrid
    seed: int
    path_index: int
    increments: np.ndarray  # n_steps values, each N(0, dt)
    values: np.ndarray      # n_steps + 1 cumulative values, W_0 = 0

    @classmethod
    def generate(cls, grid: PathGrid, seed: int, path_index: int) -> "BrownianPath":
        z = rng.standard_normals(seed, path_index, grid.n_steps)
        inc = z * math.sqrt(grid.dt)
        w = np.concatenate(([0.0], np.cumsum(inc)))
        return cls(grid=grid, seed=seed, path_index=path_index,
                   increments=inc, values=w)


@dataclass(frozen=True)
class DiscountedSums:
    """Per-path left-endpoint Riemann sums used by value estimation.

    weights w_k = exp(-rho t_k) dt for k = 0..n_steps-1; ``x``/``x2``
    accumulate w_k X_k and w_k X_k^2; the z-sums (present only when
    action noise was drawn) accumulate w_k Z_k X_k, w_k Z_k and
    w_k (Z_k^2 - 1) for the per-path action normals Z_k.
    """

    rho: float
    weight_total: float
    x: np.ndarray
    x2: np.ndarray
    zx: np.ndarray | None = None
    z: np.ndarray | None = None
    z2m1: np.ndarray | None = None


@dataclass
class TrajectoryBatch:
    """A batch of simulated sample paths plus bookkeeping.

    states is (n_paths, n_steps + 1) when paths were recorded, else
    None; endpoints always holds the final node.  Paths whose state
    exceeded the divergence threshold are flagged (frozen at their last
    finite value) rather than propagated.
    """

    grid: PathGrid
    n_paths: int
    seed: int
    x0: float
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
        heads = [f"{_F64_OPEN}{t!r}{_F64_CLOSE}," for t in self.grid.times().tolist()]
        fh.write("t,path_id,x\n")
        for p in range(self.n_paths):
            mid = f"{p},{_F64_OPEN}"
            fh.write("".join([f"{h}{mid}{x!r}{_F64_CLOSE}\n"
                              for h, x in zip(heads, self.states[p].tolist())]))


def _discount_weights(rho: float, grid: PathGrid) -> np.ndarray:
    t = np.arange(grid.n_steps) * grid.dt
    return np.exp(-rho * t) * grid.dt


def _check_n_paths(n_paths: int) -> None:
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")


def _chunk_ranges(n_paths: int, width: int):
    return [(lo, min(lo + width, n_paths)) for lo in range(0, n_paths, width)]


def _simulate_coeffs(coeffs: DerivedCoeffs, x0: float, grid: PathGrid,
                     seed: int, n_paths: int, *,
                     record_paths: bool = True,
                     checkpoints: tuple = (),
                     discount_rate: float | None = None,
                     action_noise: bool = False,
                     parallelism: int = 1) -> TrajectoryBatch:
    """Euler-Maruyama batch for dX = (a1 X + a2) dt + sqrt((b1 X + b2)^2 + c1) dW.

    ``parallelism`` is accepted for compatibility and has no effect.
    """
    _check_n_paths(n_paths)
    if coeffs.c1 < 0:
        raise ValueError("noise injection c1 must be >= 0")
    k_steps = grid.n_steps
    cp = sorted(set(int(c) for c in checkpoints))
    if cp and (cp[0] < 0 or cp[-1] > k_steps):
        raise ValueError(f"checkpoints must be grid nodes in [0, {k_steps}]")

    endpoints = np.empty(n_paths)
    diverged = np.zeros(n_paths, dtype=bool)
    div_step = np.full(n_paths, -1, dtype=np.int64)
    states = np.empty((n_paths, k_steps + 1)) if record_paths else None
    cp_states = {c: np.empty(n_paths) for c in cp}
    weights = _discount_weights(discount_rate, grid) if discount_rate is not None else None
    if weights is not None:
        sum_x = np.zeros(n_paths)
        sum_x2 = np.zeros(n_paths)
        sum_zx = np.zeros(n_paths) if action_noise else None
        sum_z = np.zeros(n_paths) if action_noise else None
        sum_z2 = np.zeros(n_paths) if action_noise else None

    dt = grid.dt
    sq_dt = math.sqrt(dt)
    cp_set = set(cp)
    a1, a2, b1, b2, c1 = coeffs.a1, coeffs.a2, coeffs.b1, coeffs.b2, coeffs.c1
    width = min(_STEP_BLOCK, k_steps)

    def run_chunk(lo: int, hi: int) -> None:
        m = hi - lo
        # Noise buffers, refilled one step block at a time.  A block of
        # n < width steps uses the first m * n entries, so it stays
        # contiguous.
        z_buf = np.empty(m * width)
        za_buf = np.empty(m * width) if (weights is not None and action_noise) else None
        x = np.full(m, float(x0))
        alive = np.ones(m, dtype=bool)
        dstep = np.full(m, -1, dtype=np.int64)
        if weights is not None:
            s_x, s_x2 = sum_x[lo:hi], sum_x2[lo:hi]
            if za_buf is not None:
                s_zx, s_z, s_z2 = sum_zx[lo:hi], sum_z[lo:hi], sum_z2[lo:hi]
        if record_paths:
            states[lo:hi, 0] = x
        for k0 in range(0, k_steps, width):
            n = min(width, k_steps - k0)
            z = rng.normal_block(seed, lo, m, n, first_step=k0,
                                 out=z_buf[:m * n].reshape(m, n))
            if za_buf is not None:
                za = rng.normal_block(seed, lo, m, n, stream=rng.ACTION_STREAM,
                                      first_step=k0,
                                      out=za_buf[:m * n].reshape(m, n))
            for j in range(n):
                k = k0 + j
                if k in cp_set:
                    cp_states[k][lo:hi] = x
                if weights is not None:
                    w = weights[k]
                    wx = w * x
                    s_x += wx
                    s_x2 += wx * x
                    if za_buf is not None:
                        zk = za[:, j]
                        wz = w * zk
                        s_zx += wz * x
                        s_z += wz
                        s_z2 += w * (zk * zk - 1.0)
                drift = a1 * x + a2
                vol = np.sqrt((b1 * x + b2) ** 2 + c1)
                xn = x + drift * dt + vol * (z[:, j] * sq_dt)
                bad = alive & ~(np.abs(xn) <= DIVERGENCE_THRESHOLD)
                if bad.any():
                    dstep[bad] = k + 1
                    alive &= ~bad
                x = np.where(alive, xn, x)
                if record_paths:
                    states[lo:hi, k + 1] = x
        if k_steps in cp_set:
            cp_states[k_steps][lo:hi] = x
        endpoints[lo:hi] = x
        diverged[lo:hi] = ~alive
        div_step[lo:hi] = dstep

    # One call per chunk, so a chunk's noise buffers are freed before
    # the next chunk's are allocated.
    for lo, hi in _chunk_ranges(n_paths, _CHUNK):
        run_chunk(lo, hi)

    sums = None
    if weights is not None:
        sums = DiscountedSums(
            rho=float(discount_rate), weight_total=float(weights.sum()),
            x=sum_x, x2=sum_x2, zx=sum_zx, z=sum_z, z2m1=sum_z2)
    return TrajectoryBatch(
        grid=grid, n_paths=n_paths, seed=seed, x0=float(x0),
        endpoints=endpoints, diverged=diverged, divergence_step=div_step,
        states=states, checkpoint_states=cp_states, sums=sums)


def simulate_exploratory(model: LqModel, policy: AffineGaussianPolicy,
                         x0: float, grid: PathGrid, seed: int, n_paths: int,
                         **kwargs) -> TrajectoryBatch:
    """Euler-Maruyama batch of the policy-averaged (exploratory) dynamics.

    With policy variance zero this coincides bitwise with
    :func:`simulate_classical` under the same affine feedback, seed and
    grid: both run the identical kernel with c1 = 0.
    """
    coeffs = derived_coeffs(model, policy)
    return _simulate_coeffs(coeffs, x0, grid, seed, n_paths, **kwargs)


def simulate_classical(model: LqModel, feedback_slope: float,
                       feedback_intercept: float, x0: float, grid: PathGrid,
                       seed: int, n_paths: int, **kwargs) -> TrajectoryBatch:
    """Euler-Maruyama batch of dx = (ax + bu(x)) dt + (cx + du(x)) dW
    under the deterministic feedback u(x) = slope*x + intercept."""
    policy = AffineGaussianPolicy(feedback_slope, feedback_intercept, 0.0)
    coeffs = derived_coeffs(model, policy)
    return _simulate_coeffs(coeffs, x0, grid, seed, n_paths, **kwargs)


# ---------------------------------------------------------------------------
# Exact reference paths.  d0 and c0 solve the state-independent process
#     dX = (a X - b q / n) dt + sqrt((c X - d q / n)^2 + lam d^2 / n) dW;
# Doss-Saussmann solves the state-dependent optimum.  Each builder checks
# its regime once and returns the map from a chunk's standard normals
# (rows = paths) to its node values.
# ---------------------------------------------------------------------------

def _brownian_nodes(z: np.ndarray, dt: float) -> np.ndarray:
    """Node values W_0 = 0, ..., W_n from standardized increments."""
    return np.concatenate(
        [np.zeros((z.shape[0], 1)), np.cumsum(z * math.sqrt(dt), axis=1)], axis=1)


def _d0_builder(model: LqModel, x0: float, grid: PathGrid):
    """Exact solution on the Brownian node values,

    X_t = x0 e^{theta t + s|c| W_t}
          - (bq/n) int_0^t e^{theta (t-u) + s|c|(W_t - W_u)} du,
    theta = a - c^2/2, s = +1 on the {x0 >= 0, bq <= 0} branch and
    s = -1 on the mirror branch; the time integral uses the trapezoid
    rule on the grid nodes.
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
    cc = abs(model.c)
    a2 = -bq / model.n
    t = grid.times()
    dt = grid.dt

    def build(z: np.ndarray) -> np.ndarray:
        w = _brownian_nodes(z, dt)
        g = np.exp(-theta * t - sgn * cc * w)
        cum = np.zeros_like(g)
        np.cumsum((g[:, :-1] + g[:, 1:]) * (dt / 2.0), axis=1, out=cum[:, 1:])
        growth = np.exp(theta * t + sgn * cc * w)
        return growth * (x0 + a2 * cum)

    return build


def _c0_builder(model: LqModel, x0: float, grid: PathGrid):
    """Ornstein-Uhlenbeck recursion with exact Gaussian transitions.

    The per-step update scales the standardized Brownian increment by
    the exact transition standard deviation, so marginals are exact at
    every node while the noise stays coupled to the Euler scheme.
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

    def build(z: np.ndarray) -> np.ndarray:
        m, k_steps = z.shape
        x = np.full(m, float(x0))
        out = np.empty((m, k_steps + 1))
        out[:, 0] = x
        for k in range(k_steps):
            x = eah * x + shift + sdh * z[:, k]
            out[:, k + 1] = x
        return out

    return build


@dataclass(frozen=True)
class DossSaussmanTransform:
    """Pathwise transform X = F(W, Y) for the optimal state SDE
    dX = (at X + bt) dt + sqrt((c1t X + c2t)^2 + dt_var) dW.

    F(z, y) = (sqrt(dt_var)/|c1t|) sinh(|c1t| z + asinh((|c1t|/sqrt(dt_var)) (y + c2t/c1t))) - c2t/c1t
    satisfies dF/dz = sqrt((c1t F + c2t)^2 + dt_var) with F(0, y) = y,
    and Y follows the per-path ODE dY/dt = G(W_t, Y_t).  The five fields
    are the Euler kernel's coefficients (a1, a2, b1, b2, c1) of
    :func:`~exploratory_lq.model.derived_coeffs` under the policy.
    """

    at: float
    bt: float
    c1t: float
    c2t: float
    dt_var: float

    @classmethod
    def from_solution(cls, model: LqModel, value) -> "DossSaussmanTransform":
        """Transform of the process driven by the optimal policy under v.

        Requires d != 0 and a positive noise injection c1 (else
        ValueError) and a nonvanishing effective volatility slope b1
        (else UnsupportedRegimeError); callers must fall back to the
        other exact constructions otherwise.
        """
        coeffs = derived_coeffs(model, policy_from_value(model, value))
        if abs(model.d) <= ABS_TOL or coeffs.c1 <= 0:
            raise ValueError("Doss-Saussmann path requires d != 0")
        if abs(coeffs.b1) <= ABS_TOL:
            raise UnsupportedRegimeError(
                "effective volatility slope vanishes; use the c = 0 exact path")
        return cls(coeffs.a1, coeffs.a2, coeffs.b1, coeffs.b2, coeffs.c1)

    def _terms(self, z, y):
        """(F, dF/dz, dF/dy) at (z, y) from one arcsinh, sinh and cosh."""
        root = math.sqrt(self.dt_var)
        ac = abs(self.c1t)
        shift = self.c2t / self.c1t
        w = ac / root * (y + shift)
        arg = ac * z + np.arcsinh(w)
        cosh = np.cosh(arg)
        return (root / ac * np.sinh(arg) - shift, root * cosh,
                cosh / np.sqrt(1.0 + w * w))

    def f(self, z, y):
        return self._terms(z, y)[0]

    def df_dz(self, z, y):
        return self._terms(z, y)[1]

    def df_dy(self, z, y):
        return self._terms(z, y)[2]

    def g(self, z, y):
        fv, _, dfy = self._terms(z, y)
        num = self.at * fv + self.bt - self.c1t / 2.0 * (self.c1t * fv + self.c2t)
        return num / dfy


def _doss_saussman_builder(model: LqModel, x0: float, grid: PathGrid, value):
    """Integrate Y per path (RK4, ODE_SUBSTEPS steps per grid step, W
    linearly interpolated inside steps) and map nodes through F.
    Verifies the defining diffusion ODE of F at every evaluated node to
    DS_DEFECT_TOL."""
    if value is None:
        raise ValueError("doss_saussman batch needs the value function")
    transform = DossSaussmanTransform.from_solution(model, value)
    dt = grid.dt
    h = dt / ODE_SUBSTEPS

    def build(z: np.ndarray) -> np.ndarray:
        w = _brownian_nodes(z, dt)
        m, nodes = w.shape
        y = np.full(m, float(x0))
        out = np.empty((m, nodes))
        out[:, 0] = x0
        worst = 0.0
        for k in range(nodes - 1):
            w0 = w[:, k]
            dw = w[:, k + 1] - w0
            for j in range(ODE_SUBSTEPS):
                z0 = w0 + dw * (j / ODE_SUBSTEPS)
                zh = w0 + dw * ((j + 0.5) / ODE_SUBSTEPS)
                z1 = w0 + dw * ((j + 1.0) / ODE_SUBSTEPS)
                k1 = transform.g(z0, y)
                k2 = transform.g(zh, y + 0.5 * h * k1)
                k3 = transform.g(zh, y + 0.5 * h * k2)
                k4 = transform.g(z1, y + h * k3)
                y = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            x, dfz, _ = transform._terms(w[:, k + 1], y)
            defect = np.abs(dfz - np.sqrt(
                (transform.c1t * x + transform.c2t) ** 2 + transform.dt_var))
            scale = np.maximum(1.0, np.abs(dfz))
            worst = max(worst, float((defect / scale).max()))
            out[:, k + 1] = x
        if worst > DS_DEFECT_TOL:
            raise NumericalError(
                f"Doss-Saussmann transform violated its defining ODE ({worst:.3g})")
        return out

    return build


def exact_batch(model: LqModel, x0: float, grid: PathGrid, seed: int,
                n_paths: int, method: str, value=None) -> TrajectoryBatch:
    """TrajectoryBatch of exact reference paths on the shared
    per-path Brownian streams; method one of 'd0', 'c0',
    'doss_saussman' ('doss_saussman' needs the value function).

    The path count, the method and its regime are checked before any
    noise is drawn.
    """
    _check_n_paths(n_paths)
    if method == "d0":
        build = _d0_builder(model, x0, grid)
    elif method == "c0":
        build = _c0_builder(model, x0, grid)
    elif method == "doss_saussman":
        build = _doss_saussman_builder(model, x0, grid, value)
    else:
        raise ValueError(f"unknown exact-path method {method!r}")
    states = np.empty((n_paths, grid.n_steps + 1))
    for lo, hi in _chunk_ranges(n_paths, _EXACT_CHUNK):
        states[lo:hi] = build(rng.normal_block(seed, lo, hi - lo, grid.n_steps))
    endpoints = states[:, -1].copy()
    return TrajectoryBatch(
        grid=grid, n_paths=n_paths, seed=seed, x0=float(x0),
        endpoints=endpoints, diverged=np.zeros(n_paths, dtype=bool),
        divergence_step=np.full(n_paths, -1, dtype=np.int64), states=states)


def _check_comparable(batch_a: TrajectoryBatch, batch_b: TrajectoryBatch) -> None:
    if batch_a.grid != batch_b.grid:
        raise GridMismatchError("batches use different grids")
    if batch_a.seed != batch_b.seed:
        raise GridMismatchError("batches use different seeds")
    if batch_a.n_paths != batch_b.n_paths:
        raise GridMismatchError("batches hold different path counts")


def strong_error(batch_a: TrajectoryBatch, batch_b: TrajectoryBatch) -> tuple[float, float]:
    """(max, mean) pathwise endpoint deviation |X_a(T) - X_b(T)|."""
    _check_comparable(batch_a, batch_b)
    diff = np.abs(batch_a.endpoints - batch_b.endpoints)
    return float(diff.max()), float(diff.mean())


def endpoint_rms_error(batch_a: TrajectoryBatch, batch_b: TrajectoryBatch) -> float:
    """Root-mean-square endpoint deviation over paths."""
    _check_comparable(batch_a, batch_b)
    diff = batch_a.endpoints - batch_b.endpoints
    return float(np.sqrt((diff * diff).mean()))
