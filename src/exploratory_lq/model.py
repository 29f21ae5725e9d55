"""Model parameterization, standing assumptions, and derived coefficients.

The controlled system is scalar and affine in state and control,

    dx = (a x + b u) dt + (c x + d u) dW,

with quadratic running reward

    r(x, u) = -(m/2 x^2 + r x u + n/2 u^2 + p x + q u),

discounted at rate ``rho`` and regularized by differential entropy with
temperature ``lam``.  Randomized feedback controls are affine Gaussians
N(slope*x + intercept, variance); averaging the dynamics over the
control distribution gives an effective affine diffusion whose
coefficients are collected in :class:`DerivedCoeffs`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import ABS_TOL
from .errors import ModelValidationError


@dataclass(frozen=True)
class LqModel:
    """Constants of the linear-quadratic problem.

    a, b: drift coefficients of state and control (1/time)
    c, d: volatility coefficients of state and control (1/sqrt(time))
    m, n, r, p, q: reward weights (state-quadratic, control-quadratic,
        cross, state-linear, control-linear); n > 0, m >= 0
    rho: discount rate (> 0)
    lam: entropy temperature / exploration weight (> 0)
    """

    a: float
    b: float
    c: float
    d: float
    m: float
    n: float
    r: float
    p: float
    q: float
    rho: float
    lam: float

    def reward(self, x, u):
        """Running reward r(x, u)."""
        return -(self.m / 2 * x * x + self.r * x * u + self.n / 2 * u * u
                 + self.p * x + self.q * u)


@dataclass(frozen=True)
class AffineGaussianPolicy:
    """Feedback control density N(. | slope*x + intercept, variance).

    variance > 0 is a genuinely randomized (exploratory) policy;
    variance == 0 encodes the Dirac feedback u(x) = slope*x + intercept.
    """

    slope: float
    intercept: float
    variance: float

    def __post_init__(self):
        if self.variance < 0:
            raise ValueError(f"policy variance must be >= 0, got {self.variance}")

    def mean(self, x):
        return self.slope * x + self.intercept

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    def density(self, x, u):
        """Gaussian pdf of the action u at state x."""
        if self.variance <= 0:
            raise ValueError("Dirac policy has no density")
        z = u - self.mean(x)
        return np.exp(-z * z / (2.0 * self.variance)) / math.sqrt(
            2.0 * math.pi * self.variance)

    def entropy(self) -> float:
        """Differential entropy 0.5*ln(2*pi*e*variance)."""
        if self.variance <= 0:
            raise ValueError("entropy undefined for variance = 0")
        return 0.5 * (math.log(2.0 * math.pi) + 1.0 + math.log(self.variance))


@dataclass(frozen=True)
class DerivedCoeffs:
    """Effective affine-diffusion coefficients under a Gaussian policy.

    The policy-averaged state dynamics is
        dX = (a1 X + a2) dt + sqrt((b1 X + b2)^2 + c1) dW
    with a1 = a + b*slope, a2 = b*intercept, b1 = c + d*slope,
    b2 = d*intercept and c1 = d^2 * variance (exploration noise
    injection; zero iff d = 0 or the policy is deterministic).
    """

    a1: float
    a2: float
    b1: float
    b2: float
    c1: float


# The one condition ``allow_assumption_violation`` forgives.
ASSUMPTION_BOUND = "rho>assumption_bound"


@dataclass(frozen=True)
class Violation:
    """A named model-invariant violation with the offending values."""

    condition: str
    message: str

    def describe(self) -> str:
        return f"{self.condition}: {self.message}"


def assumption_bound(model: LqModel) -> float:
    """Minimum discount rate making the infinite-horizon problem well posed.

    Returns 2a + c^2 + max((d^2 r^2 - 2 n r (b + c d)) / n, 0).
    """
    if model.n <= 0:
        raise ValueError(f"n must be positive, got {model.n}")
    cross = model.b + model.c * model.d
    extra = (model.d ** 2 * model.r ** 2 - 2.0 * model.n * model.r * cross) / model.n
    return 2.0 * model.a + model.c ** 2 + max(extra, 0.0)


def check_model(model: LqModel) -> list[Violation]:
    """Collect every violated invariant; empty list means valid.

    A non-finite constant is reported alone, naming every such constant:
    the other invariants mean nothing on NaN or infinity.  The
    discount-rate bound is only required when m > 0; the boundary
    configuration m = r = 0 (state-independent-type reward) is admitted
    without it.
    """
    bad = [f"{name}={value!r}" for name, value in vars(model).items()
           if not math.isfinite(value)]
    if bad:
        return [Violation("finite", " ".join(bad))]
    out = []
    if not model.n > ABS_TOL:
        out.append(Violation("n>0", f"n={model.n!r}"))
    if model.m < -ABS_TOL:
        out.append(Violation("m>=0", f"m={model.m!r}"))
    if not model.rho > ABS_TOL:
        out.append(Violation("rho>0", f"rho={model.rho!r}"))
    if not model.lam > ABS_TOL:
        out.append(Violation("lambda>0", f"lambda={model.lam!r}"))

    boundary = abs(model.m) <= ABS_TOL and abs(model.r) <= ABS_TOL
    if not boundary and model.n > ABS_TOL and model.m >= -ABS_TOL:
        # Strict r^2 < m*n; equality is rejected (ambiguous in theory).
        if not model.m * model.n - model.r ** 2 > ABS_TOL:
            out.append(Violation(
                "r^2<mn", f"r^2={model.r ** 2!r} vs m*n={model.m * model.n!r}"))

    if model.m > ABS_TOL and model.n > ABS_TOL and model.rho > ABS_TOL:
        if not clears_bound(model):
            out.append(Violation(ASSUMPTION_BOUND, f"rho={model.rho!r} vs "
                                 f"bound={assumption_bound(model)!r}"))
    return out


def clears_bound(model: LqModel) -> bool:
    """rho - assumption_bound(model) > ABS_TOL.  :func:`check_model`
    requires this only when m > 0."""
    return model.rho - assumption_bound(model) > ABS_TOL


def validate(model: LqModel, *, allow_assumption_violation: bool = False) -> LqModel:
    """Return the model if all invariants hold, else raise.

    With ``allow_assumption_violation`` the discount-rate bound
    (and only that bound) may be violated; callers that use the flag
    must mark downstream results as unverified.
    """
    violations = check_model(model)
    if allow_assumption_violation:
        violations = [v for v in violations if v.condition != ASSUMPTION_BOUND]
    if violations:
        raise ModelValidationError(violations)
    return model


def derived_coeffs(model: LqModel, policy: AffineGaussianPolicy) -> DerivedCoeffs:
    """Effective diffusion coefficients of the policy-averaged dynamics."""
    return DerivedCoeffs(
        a1=model.a + model.b * policy.slope,
        a2=model.b * policy.intercept,
        b1=model.c + model.d * policy.slope,
        b2=model.d * policy.intercept,
        c1=model.d ** 2 * policy.variance,
    )
