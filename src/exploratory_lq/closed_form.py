"""Closed-form value functions, optimal policies, and their residuals.

Everything here is algebra on the model constants.  The quadratic value
ansatz v(x) = k2/2 x^2 + k1 x + k0 turns the entropy-regularized HJB
equation into the algebraic system

    rho*k2 = (k2 (b+cd) - r)^2 / (n - k2 d^2) + k2 (2a + c^2) - m
    rho*k1 = (k1 b - q)(k2 (b+cd) - r) / (n - k2 d^2) + k1 a - p
    rho*k0 = (k1 b - q)^2 / (2 (n - k2 d^2))
             + lam/2 (ln(2 pi e lam / (n - k2 d^2)) - 1)

whose concave root k2 <= 0 defines the value function.  The maximizing
feedback density is the Gaussian

    N(. | ((k2 (b+cd) - r) x + k1 b - q) / (n - k2 d^2),
          lam / (n - k2 d^2)),

whose mean equals the optimal feedback of the classical (unregularized)
problem and whose variance is linear in the temperature.  The classical
optimum is therefore the same two types: a ``QuadraticValue`` sharing
(k2, k1), whose k0 drops the entropy annuity, and the same policy with
variance zero.  Each solver exposes a matching ``*_residual`` entry
point so tests never compare two independently rounded floats without
a stated tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import rng
from .constants import ABS_TOL
from .errors import (
    DegenerateLinearTermError,
    NoConcaveRootError,
    NonIntegrableDensityError,
)
from .model import AffineGaussianPolicy, LqModel, assumption_bound, validate

LOG_2PI = math.log(2.0 * math.pi)


def log_2pi_e_ratio(lam: float, denom: float) -> float:
    """ln(2*pi*e*lam/denom) split as ln(2pi) + 1 + ln(lam) - ln(denom).

    The split form stays accurate for the extreme temperatures reached
    by lambda sweeps (down to 1e-8).
    """
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    if denom <= 0:
        raise NonIntegrableDensityError(
            f"n - k2*d^2 must be positive, got {denom}")
    return LOG_2PI + 1.0 + math.log(lam) - math.log(denom)


def _positive_n2(model: LqModel, k2: float) -> float:
    """n - k2 d^2, the curvature of the Boltzmann exponent in u; the
    feedback density is integrable only when it is positive."""
    n2 = model.n - k2 * model.d ** 2
    if n2 <= 0:
        raise NonIntegrableDensityError(
            f"n - k2*d^2 must be positive, got {n2}")
    return n2


def _nonzero_n2(model: LqModel, k2: float) -> float:
    """n - k2 d^2, which the residuals divide by; it may be negative."""
    n2 = model.n - k2 * model.d ** 2
    if n2 == 0:
        raise NonIntegrableDensityError(f"n - k2*d^2 must be nonzero, got {n2}")
    return n2


@dataclass(frozen=True)
class QuadraticValue:
    """Value-function coefficients of v(x) = k2/2 x^2 + k1 x + k0."""

    k2: float
    k1: float
    k0: float

    def __call__(self, x):
        return 0.5 * self.k2 * x * x + self.k1 * x + self.k0

    def derivative(self, x):
        return self.k2 * x + self.k1


@dataclass(frozen=True)
class SweepPoint:
    """One row of a temperature sweep."""

    lam: float
    variance: float
    value_gap: float
    cost: float
    mean_at_probe: float
    probe_x: float


def riccati_roots(model: LqModel) -> tuple[float, float]:
    """Both roots of the curvature quadratic, (concave, convex).

    The convex root exists only as a diagnostic; it does not produce a
    value function.  When the quadratic degenerates to a linear
    equation (b + cd = 0 and d = 0) both entries equal its unique root.
    Where num - sqrt(disc) would cancel (num > 0 and the difference
    below num / 2), the concave root is taken in the product form
    2 (r^2 - mn) / (num + sqrt(disc)), which does not.
    """
    beta = model.b + model.c * model.d
    shift = model.rho - (2.0 * model.a + model.c ** 2)
    den = beta ** 2 + shift * model.d ** 2
    num = shift * model.n + 2.0 * beta * model.r - model.d ** 2 * model.m
    lead_scale = max(abs(beta) ** 2, abs(shift) * model.d ** 2, 1.0)
    if abs(den) <= ABS_TOL * lead_scale:
        # Quadratic term vanishes: rho k2 = r^2/n + k2(2a+c^2) - m.
        if abs(shift) <= ABS_TOL:
            raise NoConcaveRootError("curvature equation is degenerate")
        root = (model.r ** 2 / model.n - model.m) / shift
        return root, root
    const = model.r ** 2 - model.m * model.n
    disc = num ** 2 - 4.0 * den * const
    if disc < 0:
        raise NoConcaveRootError(
            f"negative discriminant {disc!r} in the curvature quadratic")
    sq = math.sqrt(disc)
    if num > 0 and abs(num - sq) < num / 2.0:
        concave = 2.0 * const / (num + sq)
    else:
        concave = (num - sq) / (2.0 * den)
    return concave, (num + sq) / (2.0 * den)


def solve_k2(model: LqModel) -> float:
    """Concave-branch curvature of the value function.

    k2 < 0 whenever m > 0; the boundary family m = r = 0 collapses to
    k2 = 0 (constant-curvature-free value), which the explicit root
    formula reproduces but is returned exactly to avoid rounding.
    """
    if abs(model.m) <= ABS_TOL and abs(model.r) <= ABS_TOL:
        return 0.0
    concave, _ = riccati_roots(model)
    return concave


def k2_residual(model: LqModel, k2: float) -> float:
    """Defect of k2 in the curvature equation (zero at a true root)."""
    n2 = _nonzero_n2(model, k2)
    beta = model.b + model.c * model.d
    rhs = ((k2 * beta - model.r) ** 2 / n2
           + k2 * (2.0 * model.a + model.c ** 2) - model.m)
    return model.rho * k2 - rhs


def solve_k1(model: LqModel, k2: float) -> float:
    """Linear coefficient of the value function.

    Solves the linear equation exactly:
    k1 = (p (n - k2 d^2) + q (k2 (b+cd) - r))
         / (k2 b (b+cd) + (a - rho)(n - k2 d^2) - b r).
    A denominator within 1e-12 of zero is reported as degenerate, not
    regularized.
    """
    n2 = model.n - k2 * model.d ** 2
    beta = model.b + model.c * model.d
    den = k2 * model.b * beta + (model.a - model.rho) * n2 - model.b * model.r
    if abs(den) <= ABS_TOL:
        raise DegenerateLinearTermError(
            f"linear-term denominator {den!r} vanishes")
    num = model.p * n2 + model.q * (k2 * beta - model.r)
    return num / den


def k1_residual(model: LqModel, k2: float, k1: float) -> float:
    """Defect of k1 in the linear ansatz equation."""
    n2 = _nonzero_n2(model, k2)
    beta = model.b + model.c * model.d
    rhs = ((k1 * model.b - model.q) * (k2 * beta - model.r) / n2
           + k1 * model.a - model.p)
    return model.rho * k1 - rhs


def solve_k0(model: LqModel, k2: float, k1: float) -> float:
    """Constant term: squared-drift annuity plus the entropy annuity."""
    n2 = _positive_n2(model, k2)
    lin = k1 * model.b - model.q
    return lin ** 2 / (2.0 * model.rho * n2) + _entropy_annuity(model, n2)


def _entropy_annuity(model: LqModel, n2: float) -> float:
    """lam/(2 rho) (ln(2 pi e lam/n2) - 1): the discounted entropy bonus
    of the optimal policy net of its expected quadratic cost."""
    return (model.lam / (2.0 * model.rho)
            * (log_2pi_e_ratio(model.lam, n2) - 1.0))


def k0_residual(model: LqModel, k2: float, k1: float, k0: float) -> float:
    """Defect of k0 in the constant ansatz equation."""
    n2 = _positive_n2(model, k2)
    lin = k1 * model.b - model.q
    rhs = (lin ** 2 / (2.0 * n2)
           + model.lam / 2.0 * (log_2pi_e_ratio(model.lam, n2) - 1.0))
    return model.rho * k0 - rhs


def policy_from_value(model: LqModel, value: QuadraticValue) -> AffineGaussianPolicy:
    """Gaussian feedback maximizing the HJB right-hand side under v."""
    n2 = _positive_n2(model, value.k2)
    beta = model.b + model.c * model.d
    return AffineGaussianPolicy(
        slope=(value.k2 * beta - model.r) / n2,
        intercept=(value.k1 * model.b - model.q) / n2,
        variance=model.lam / n2,
    )


@dataclass(frozen=True)
class Solution:
    """The solved model: value coefficients (k2, k1, k0), the positive
    curvature n2 = n - k2 d^2, the optimal Gaussian feedback
    N(((k2 (b+cd) - r) x + k1 b - q)/n2, lam/n2), and the classical
    optimum as the same two types.  The classical value shares k2 and
    k1 and drops the entropy annuity from k0; the classical policy is
    the optimal policy with variance zero, so its feedback is that
    policy's mean bit for bit."""

    model: LqModel
    value: QuadraticValue
    n2: float
    policy: AffineGaussianPolicy
    classical_value: QuadraticValue
    classical_policy: AffineGaussianPolicy

    def record(self) -> dict:
        """JSON-ready record of the full closed-form solution."""
        return {
            "k2": self.value.k2,
            "k1": self.value.k1,
            "k0": self.value.k0,
            "alpha0": self.classical_value.k0,
            "policy": {
                "slope": self.policy.slope,
                "intercept": self.policy.intercept,
                "variance": self.policy.variance,
            },
            "cost": exploration_cost(self.model),
            "assumption_bound": assumption_bound(self.model),
        }

    def cost_decomposition(self, x) -> float:
        """Assemble the exploration cost from its definition,

            w(x) - v(x) + lam/(2 rho) * ln(2 pi e lam/n2),

        where the last term removes the discounted entropy contribution
        of the optimal policy from the value difference.  Returns
        lam/(2 rho) identically in x, so tests can assert that
        independence.
        """
        model = self.model
        ent = log_2pi_e_ratio(model.lam, self.n2)
        gap = self.classical_value(x) - self.value(x)
        return gap + model.lam / (2.0 * model.rho) * ent


def solve(model: LqModel, *, allow_assumption_violation: bool = False) -> Solution:
    """Validate the model and solve it once: the concave root k2, then
    k1 and k0, the optimal policy and the classical pair."""
    validate(model, allow_assumption_violation=allow_assumption_violation)
    k2 = solve_k2(model)
    k1 = solve_k1(model, k2)
    value = QuadraticValue(k2, k1, solve_k0(model, k2, k1))
    policy = policy_from_value(model, value)
    n2 = model.n - k2 * model.d ** 2
    lin = k1 * model.b - model.q
    return Solution(
        model, value, n2, policy,
        classical_value=QuadraticValue(k2, k1, lin ** 2 / (2.0 * model.rho * n2)),
        classical_policy=AffineGaussianPolicy(policy.slope, policy.intercept, 0.0))


def exploratory_solution(model: LqModel) -> tuple[QuadraticValue, AffineGaussianPolicy]:
    """Value function and optimal Gaussian feedback of the regularized problem.

    In the state-independent-reward case (m = r = p = 0) this reduces to
    the constant value q^2/(2 rho n) + lam/(2 rho)(ln(2 pi e lam/n) - 1)
    with policy N(-q/n, lam/n) at every state.
    """
    sol = solve(model)
    return sol.value, sol.policy


def classical_solution(model: LqModel) -> tuple[QuadraticValue, AffineGaussianPolicy]:
    """Value function and zero-variance optimal feedback of the
    unregularized problem.

    The feedback equals the exploratory policy mean at every state.
    """
    sol = solve(model)
    return sol.classical_value, sol.classical_policy


def hjb_residual(model: LqModel, value: QuadraticValue, x, kind: str):
    """rho*v(x) minus the HJB right-hand side, evaluated with the
    quadratic ansatz derivatives v'(x) = k2 x + k1 and v'' = k2.

    kind 'exploratory' includes the entropy term; 'classical' omits it.
    Zero (to rounding) exactly when the coefficients solve the
    respective equation.  Vectorized over x.
    """
    if kind not in ("exploratory", "classical"):
        raise ValueError(f"unknown HJB kind {kind!r}")
    x = np.asarray(x, dtype=float)
    k2 = value.k2
    n2 = _positive_n2(model, k2)
    vp = value.derivative(x)
    quad = (model.c * model.d * x * k2 + model.b * vp
            - model.r * x - model.q)
    rhs = (quad ** 2 / (2.0 * n2)
           + 0.5 * (model.c ** 2 * k2 - model.m) * x * x
           + (model.a * vp - model.p) * x)
    if kind == "exploratory":
        rhs = rhs + model.lam / 2.0 * (log_2pi_e_ratio(model.lam, n2) - 1.0)
    res = model.rho * value(x) - rhs
    return res if res.shape else float(res)


def softmax_density(model: LqModel, value: QuadraticValue, x, u):
    """Boltzmann feedback density exp((r + sigma^2 v''/2 + b v')/lam),
    normalized over u by completing the square.

    The exponent is quadratic in u with leading coefficient
    -(n - d^2 v'')/(2 lam); integrability therefore requires
    n - d^2 v'' > 0, and the normalized density is the Gaussian with
    mean (c d x v'' + b v' - r x - q)/(n - d^2 v'') and variance
    lam/(n - d^2 v'').  Vectorized over broadcastable (x, u).
    """
    k2 = value.k2
    n2 = _positive_n2(model, k2)
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    vp = value.derivative(x)
    mean = (model.c * model.d * x * k2 + model.b * vp
            - model.r * x - model.q) / n2
    var = model.lam / n2
    z = u - mean
    out = np.exp(-z * z / (2.0 * var)) / np.sqrt(2.0 * np.pi * var)
    return out if out.shape else float(out)


def exploration_cost(model: LqModel) -> float:
    """Cost of exploration relative to the full-information optimum.

    Equals lam/(2 rho) for every solvable model, independent of the
    state and of the dynamics/reward constants.
    """
    return model.lam / (2.0 * model.rho)


def value_gap(model: LqModel) -> float:
    """v(x) - w(x): the (state-independent) entropy annuity
    lam/(2 rho) (ln(2 pi e lam/(n - k2 d^2)) - 1).  Raises
    ModelValidationError on an invalid model."""
    validate(model)
    return _entropy_annuity(model, model.n - solve_k2(model) * model.d ** 2)


def lambda_sweep(model: LqModel, lambdas, probe_x: float = 1.0, *,
                 allow_assumption_violation: bool = False) -> list[SweepPoint]:
    """Resolve the model once at each temperature.

    The policy mean is temperature-free (its coefficients never touch
    lam), the variance is exactly linear in lam, and the value gap
    v - w vanishes as lam -> 0.
    """
    if not (rng.is_real(probe_x) and math.isfinite(probe_x)):
        raise ValueError(f"probe_x must be finite, and a real number, got {probe_x!r}")
    out = []
    for lam in lambdas:
        if not rng.is_real(lam) or lam <= 0:
            raise ValueError(f"sweep temperatures must be positive, and real numbers, got {lam!r}")
        m = replace(model, lam=float(lam))
        sol = solve(m, allow_assumption_violation=allow_assumption_violation)
        out.append(SweepPoint(
            lam=float(lam),
            variance=sol.policy.variance,
            value_gap=_entropy_annuity(m, sol.n2),
            cost=exploration_cost(m),
            mean_at_probe=sol.policy.mean(probe_x),
            probe_x=probe_x,
        ))
    return out


def solution_record(model: LqModel) -> dict:
    """JSON-ready record of the full closed-form solution."""
    return solve(model).record()
