"""First and second moments of the controlled state in closed form.

For the affine diffusion dX = (A1 X + A2) dt + sqrt((B1 X + B2)^2 + C1) dW
the moments n(t) = E[X_t] and m(t) = E[X_t^2] solve linear ODEs

    n' = A1 n + A2,                       n(0) = x0,
    m' = (2 A1 + B1^2) m + 2 (A2 + B1 B2) n + B2^2 + C1,   m(0) = x0^2,

and the classical process (no exploration noise) obeys the same system
with C1 = 0, which is what the zero-variance policy's coefficients
carry.  Variation of constants yields five closed-form
branches keyed on which of A1, B1, A1 + B1^2, 2 A1 + B1^2 vanish; a
fixed-step RK4 integrator of the same ODEs doubles as an independent
numerical oracle and takes over near branch boundaries where the closed
forms lose digits to cancellation.
"""

from __future__ import annotations

import numpy as np

from .constants import CASE_TOL, NEAR_BAND, RK_STEPS
from .model import DerivedCoeffs, LqModel


def _phi1(z: np.ndarray) -> np.ndarray:
    """(e^z - 1)/z, continuous through z = 0."""
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < 1e-4
    zs = np.where(small, 0.0, z)
    with np.errstate(invalid="ignore", divide="ignore"):
        exact = np.expm1(zs) / np.where(small, 1.0, zs)
    series = 1.0 + z / 2.0 + z * z / 6.0 + z ** 3 / 24.0
    return np.where(small, series, exact)


def _phi2(z: np.ndarray) -> np.ndarray:
    """(e^z - 1 - z)/z^2, continuous through z = 0."""
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < 1e-4
    zs = np.where(small, 1.0, z)
    exact = (np.expm1(zs) - zs) / (zs * zs)
    series = 0.5 + z / 6.0 + z * z / 24.0 + z ** 3 / 120.0
    return np.where(small, series, exact)


def classify_case(coeffs: DerivedCoeffs) -> tuple[str, bool]:
    """Branch tag in {'a','b','c','d','e'} plus a near-boundary flag.

    The flag marks inputs whose defining quantities sit between the
    dispatch tolerance and the near-boundary band: too large to treat
    as zero, too small for the closed forms dividing by them; those are
    better served by the numerical integrator.
    """
    a1, b1 = coeffs.a1, coeffs.b1
    crit = (a1, b1, a1 + b1 * b1, 2.0 * a1 + b1 * b1)
    near = any(CASE_TOL < abs(cv) <= NEAR_BAND for cv in crit)
    if abs(a1) <= CASE_TOL and abs(b1) <= CASE_TOL:
        tag = "a"
    elif abs(a1) <= CASE_TOL:
        tag = "b"
    elif abs(a1 + b1 * b1) <= CASE_TOL:
        tag = "c"
    elif abs(2.0 * a1 + b1 * b1) <= CASE_TOL:
        tag = "d"
    else:
        tag = "e"
    return tag, near


def mean_curve(coeffs: DerivedCoeffs, x0: float, t):
    """n(t) = (x0 + A2/A1) e^{A1 t} - A2/A1, or x0 + A2 t when A1 = 0."""
    t = np.asarray(t, dtype=float)
    if abs(coeffs.a1) <= CASE_TOL:
        out = x0 + coeffs.a2 * t
    else:
        ratio = coeffs.a2 / coeffs.a1
        out = (x0 + ratio) * np.exp(coeffs.a1 * t) - ratio
    return out if out.shape else float(out)


def _closed_second_moment(coeffs: DerivedCoeffs, x0: float, t: np.ndarray,
                          tag: str) -> np.ndarray:
    a1, a2 = coeffs.a1, coeffs.a2
    b1 = coeffs.b1
    alpha = 2.0 * a1 + b1 * b1
    beta = a2 + b1 * coeffs.b2
    gamma = coeffs.b2 ** 2 + coeffs.c1
    x0sq = x0 * x0
    if tag == "a":
        return x0sq + t * (2.0 * beta * x0 + gamma) + t * t * beta * a2
    if tag == "b":
        # e^{at}x^2 + (2 beta x + gamma) t phi1(at) + 2 beta a2 t^2 phi2(at);
        # the phi form survives alpha = b1^2 -> 0 without cancellation.
        return (np.exp(alpha * t) * x0sq
                + (2.0 * beta * x0 + gamma) * t * _phi1(alpha * t)
                + 2.0 * beta * a2 * t * t * _phi2(alpha * t))
    shifted = x0 + a2 / a1
    forced = gamma - 2.0 * beta * a2 / a1
    if tag == "c":
        # alpha == a1: resonant forcing gives the t e^{a1 t} term.
        return (np.exp(a1 * t) * (x0sq + 2.0 * beta * shifted * t)
                + forced * t * _phi1(a1 * t))
    if tag == "d":
        return (x0sq + 2.0 * beta * shifted * t * _phi1(a1 * t)
                + forced * t)
    # General branch: (e^{alpha t} - e^{a1 t})/(a1 + b1^2) written as
    # e^{a1 t} t phi1((a1 + b1^2) t) to stay stable near the c-boundary.
    delta = a1 + b1 * b1
    return (np.exp(alpha * t) * x0sq
            + 2.0 * beta * shifted * np.exp(a1 * t) * t * _phi1(delta * t)
            + forced * t * _phi1(alpha * t))


def integrate_moment_ode(a1, a2, b1, b2, c1, x0, t) -> tuple[np.ndarray, np.ndarray]:
    """RK4 integration of the (n, m) system to time t.

    The coefficients and t may be scalars or broadcastable arrays, so a
    batch of coefficient sets, of end times, or of both integrates in
    one pass; every element takes RK_STEPS steps of size t/RK_STEPS.
    Returns (n(t), m(t)) in the broadcast shape.
    """
    a1, a2, b1, b2, c1, t = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (a1, a2, b1, b2, c1, t)))
    alpha = 2.0 * a1 + b1 * b1
    beta = a2 + b1 * b2
    gamma = b2 * b2 + c1

    def rhs(state):
        n, m = state
        return np.stack([a1 * n + a2, alpha * m + 2.0 * beta * n + gamma])

    h = t / RK_STEPS
    state = np.stack([np.broadcast_to(np.asarray(x0, dtype=float), a1.shape),
                      np.broadcast_to(np.asarray(x0, dtype=float) ** 2, a1.shape)]).copy()
    for _ in range(RK_STEPS):
        k1 = rhs(state)
        k2 = rhs(state + 0.5 * h * k1)
        k3 = rhs(state + 0.5 * h * k2)
        k4 = rhs(state + h * k3)
        state = state + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return state[0], state[1]


def second_moment_curve(coeffs: DerivedCoeffs, x0: float, t):
    """m(t) = E[X_t^2] of the process with these coefficients.

    The classical curve m_hat(t) is the same call on the coefficients
    of the zero-variance policy (``Solution.classical_policy``), whose
    c1 is 0.  Dispatches to the closed-form branch for the coefficient
    case; near-boundary coefficients fall back to the RK4 integrator.
    """
    t_arr = np.asarray(t, dtype=float)
    tag, near = classify_case(coeffs)
    if near:
        _, m = integrate_moment_ode(coeffs.a1, coeffs.a2, coeffs.b1, coeffs.b2,
                                    coeffs.c1, x0, t_arr)
        out = np.where(t_arr == 0.0, x0 * x0, m)
    else:
        out = _closed_second_moment(coeffs, x0, t_arr, tag)
    return out if out.shape else float(out)


def admissibility_decay(model: LqModel, coeffs: DerivedCoeffs) -> tuple[float, bool]:
    """Growth-vs-discount exponent 2 A1 + B1^2 - rho and whether the
    discounted second moment decays (exponent < 0).

    For coefficients derived from the optimal policy of a validated
    model the exponent is negative; :func:`decay_exponent_from_riccati`
    evaluates the same quantity through its curvature-root expansion.
    """
    exponent = 2.0 * coeffs.a1 + coeffs.b1 ** 2 - model.rho
    return exponent, exponent < 0


def decay_exponent_from_riccati(model: LqModel, k2: float) -> float:
    """2 A1 + B1^2 - rho expanded via the curvature root:

        2a + c^2 - rho
        + [k2 (2n - k2 d^2) (b + cd)^2 - (2 n r (b + cd) - d^2 r^2)]
          / (n - k2 d^2)^2.

    The first bracket term is nonpositive for k2 <= 0, which combined
    with the discount-rate bound forces a negative exponent.
    """
    beta = model.b + model.c * model.d
    n2 = model.n - k2 * model.d ** 2
    frac = (k2 * (2.0 * model.n - k2 * model.d ** 2) * beta ** 2
            - (2.0 * model.n * model.r * beta - model.d ** 2 * model.r ** 2)) / n2 ** 2
    return 2.0 * model.a + model.c ** 2 - model.rho + frac
