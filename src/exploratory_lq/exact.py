"""Exact reference paths: the oracles for the exploratory state equation.

Three reference constructions provide oracles on shared Brownian
increments.  The Ornstein-Uhlenbeck recursion for c = 0 (exact Gaussian
transitions driven by the same standardized increments) is exact in law
at the nodes.  The lognormal-type solution for d = 0 and the
Doss-Saussmann transform X = F(W, Y) for the general state-dependent
optimum, with Y solved per path by a fixed-step RK4 integrator, are
order-1 reference paths: d0 takes its time integral by the trapezoid
rule and Doss-Saussmann reads W linearly interpolated inside a step, so
each leaves a Brownian-bridge error of order dt^{3/2} per step.  Their
pathwise error, of order dt, stays well below the order-1/2 Euler
deviation that :func:`sde.strong_errors` measures: it steps each method
beside the Euler batch of the process it solves, on the same noise, and
returns their endpoint deviation.  The "exact" in the function and
method names is kept.

The exact builders walk one chunk's noise blocks, laid out as
``sde._noise_blocks`` draws them: normal k of a path in the column of
node k + 1, in one buffer reused across blocks.  W is summed in that
buffer in place, and c0 writes its nodes over the normals they come
from; d0 and Doss-Saussmann build their nodes in buffers of their own.
Each builder carries what crosses a block edge and yields a block's
nodes: :func:`sde.exact_batch` copies them into its read-only array, and
:func:`sde.strong_errors` keeps only the endpoints, so its memory does
not grow with the number of steps.  A builder reads only its grid's
``dt``, so this module imports nothing from ``sde``.
"""

from __future__ import annotations

import math

import numpy as np

from .closed_form import QuadraticValue, policy_from_value
from .constants import ABS_TOL, DS_DEFECT_TOL, ODE_SUBSTEPS
from .errors import NumericalError, UnsupportedRegimeError
from .model import AffineGaussianPolicy, DerivedCoeffs, LqModel, derived_coeffs

# Paths per tile of the Doss-Saussmann node check.
_CHECK_ROWS = 16

# d0 and c0 solve the state-independent process
#     dX = (a X - b q / n) dt + sqrt((c X - d q / n)^2 + lam d^2 / n) dW;
# Doss-Saussmann solves the state-dependent optimum.  Each builder checks
# its regime once and returns the generator build(blocks), which walks
# one chunk's noise blocks (k0, block), normal k0 + j in block[:, j + 1],
# carries what crosses a block edge and yields (k0, nodes) per block:
# nodes k0..k0+n of the chunk's paths (rows), valid until the next block
# is drawn.  c0's nodes are the noise block itself, d0's and
# Doss-Saussmann's a buffer of their own reused across blocks.  Column 0
# of the first block is node 0, of a later block the node carried over.


def state_independent_policy(model: LqModel) -> AffineGaussianPolicy:
    """N(-q/n, lam/n) at every state: the policy whose process the d0 and
    c0 exact paths solve.  It is the model's optimum only when
    m = r = p = 0."""
    return AffineGaussianPolicy(0.0, -model.q / model.n, model.lam / model.n)


def _brownian_blocks(blocks, dt: float):
    """Yield (k0, w) per noise block (k0, w): the block made W in place,
    W at nodes k0..k0+n of its paths (rows).  Column 0 gets the last
    node of the block before (W_0 = 0), copied out before the next draw
    overwrites it."""
    last = 0.0
    for k0, w in blocks:
        w[:, 0] = last
        w[:, 1:] *= math.sqrt(dt)
        np.cumsum(w, axis=1, out=w)
        last = w[:, -1].copy()
        yield k0, w


def _d0_builder(model: LqModel, x0: float, grid):
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


def _c0_builder(model: LqModel, x0: float, grid):
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
        x = float(x0)
        for k0, nodes in blocks:
            nodes[:, 0] = x
            for j in range(1, nodes.shape[1]):
                x = eah * x + shift + sdh * nodes[:, j]
                nodes[:, j] = x               # over the normal it read
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


def _doss_saussman_builder(model: LqModel, x0: float, grid,
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


def builder(model: LqModel, x0: float, grid, method: str, value):
    """(build, policy): the builder of ``method``'s exact paths, its
    regime checked, and the policy whose Euler process they solve.  Only
    'doss_saussman' takes a ``value``; d0 and c0 refuse one."""
    if method in ("d0", "c0") and value is not None:
        raise ValueError(f"value is used only by doss_saussman; {method} takes "
                         f"None, got {value!r}")
    if method == "d0":
        return _d0_builder(model, x0, grid), state_independent_policy(model)
    if method == "c0":
        return _c0_builder(model, x0, grid), state_independent_policy(model)
    if method == "doss_saussman":
        if not isinstance(value, QuadraticValue):
            raise ValueError("doss_saussman batch needs the value function, a "
                             f"QuadraticValue, got {value!r}")
        policy = policy_from_value(model, value)
        return _doss_saussman_builder(model, x0, grid, policy), policy
    raise ValueError(f"unknown exact-path method {method!r}")
