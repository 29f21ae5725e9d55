"""Monte Carlo estimation of the discounted objectives.

The entropy-regularized objective integrates, along the exploratory
state path,

    e^{-rho t} ( int r(X_t, u) pi(u|X_t) du + lam * H(pi(.|X_t)) ),

which for an affine Gaussian policy reduces to a quadratic function of
the state: actions are integrated out analytically, removing their
sampling variance.  An optional sampled-action mode draws u ~ pi(.|X_t)
from an independent per-path stream and estimates the same objective
without the analytic reduction; it exists to demonstrate agreement and
to restore a genuine statistical error bar on degenerate-noise models.
The reward integral uses left-endpoint Riemann weights, matching the
Euler scheme's filtration convention, and the discarded tail beyond the
horizon is bounded analytically from the moment curves.  That bound is
built from the optimal value's coefficients, so it holds for the
optimal policy only; for any other policy it can be far too small.
Both estimators call ``solve``, the one check of the model, before any
noise is drawn, then walk, then bound the tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closed_form import QuadraticValue, log_2pi_e_ratio, solve
from .model import AffineGaussianPolicy, LqModel, derived_coeffs
from .moments import second_moment_curve
from .sde import PathGrid, simulate_exploratory


@dataclass(frozen=True)
class ValueEstimate:
    """Monte Carlo estimate with its statistical and truncation errors.

    ``truncation_bound`` bounds the discarded tail beyond the horizon
    when the evaluated policy is the optimal one (for any other policy
    it can be far too small; see :func:`truncation_bound`), and is
    reported separately from the standard error, never folded into it.
    """

    value: float
    std_error: float
    truncation_bound: float
    n_paths: int
    dt: float
    horizon: float
    seed: int

    def as_dict(self) -> dict:
        return {
            "value": self.value,
            "std_error": self.std_error,
            "truncation_bound": self.truncation_bound,
            "n_paths": self.n_paths,
            "dt": self.dt,
            "T": self.horizon,
            "seed": self.seed,
        }


def integrand_coefficients(model: LqModel,
                           policy: AffineGaussianPolicy) -> tuple[float, float, float]:
    """Quadratic coefficients (g2, g1, g0) of the running integrand
    g(x) = g2 x^2 + g1 x + g0 after integrating actions out.

    variance > 0 adds the entropy bonus lam/2 ln(2 pi e s^2); variance
    zero is the classical integrand r(x, u(x)) with u = mean.
    """
    a, c, s2 = policy.slope, policy.intercept, policy.variance
    g2 = -(model.m / 2.0 + model.r * a + model.n / 2.0 * a * a)
    g1 = -(model.r * c + model.n * a * c + model.p + model.q * a)
    g0 = -(model.n / 2.0 * (c * c + s2) + model.q * c)
    if s2 > 0:
        g0 += model.lam * policy.entropy()
    return g2, g1, g0


def truncation_bound(model: LqModel, policy: AffineGaussianPolicy,
                     x0: float, horizon: float, *,
                     allow_assumption_violation: bool = False) -> float:
    """e^{-rho T} (|k2|/2 m(T) + |k1| sqrt(m(T)) + |k0|) with m(T) the
    exploratory second moment under the simulated policy.

    (k2, k1, k0) are the coefficients of the optimal value
    ``solve(model).value`` whatever ``policy`` is, so this bounds the
    tail of the optimal policy only.  For any other policy the tail is
    e^{-rho T} E[V^pi(X_T)], and this bound can be far too small.
    ``x0`` and ``horizon`` meet the checks of
    :func:`~exploratory_lq.moments.second_moment_curve` on its x0 and t.
    """
    value = solve(
        model, allow_assumption_violation=allow_assumption_violation).value
    return _tail_bound(model, value, policy, x0, horizon)


def _tail_bound(model: LqModel, value: QuadraticValue,
                policy: AffineGaussianPolicy, x0: float, horizon: float) -> float:
    coeffs = derived_coeffs(model, policy)
    m_t = second_moment_curve(coeffs, x0, horizon)
    return math.exp(-model.rho * horizon) * (
        0.5 * abs(value.k2) * m_t + abs(value.k1) * math.sqrt(max(m_t, 0.0))
        + abs(value.k0))


def _per_path_values(model: LqModel, policy: AffineGaussianPolicy, x0: float,
                     grid: PathGrid, seed: int, n_paths: int,
                     sample_actions: bool) -> np.ndarray:
    batch = simulate_exploratory(
        model, policy, x0, grid, seed, n_paths,
        record_paths=False, discount_rate=model.rho,
        action_noise=sample_actions)
    batch.require_no_divergence()
    g2, g1, g0 = integrand_coefficients(model, policy)
    sums = batch.sums
    values = g2 * sums.x2 + g1 * sums.x + g0 * sums.weight_total
    if sample_actions:
        # Replace the analytic action average by sampled actions:
        # r(x, mu + s Z) - lam ln pi = analytic
        #   - s Z ((r + n*slope) x + q + n*intercept)
        #   + (Z^2 - 1)(lam - n s^2)/2.
        s = policy.std
        values = values - s * ((model.r + model.n * policy.slope) * sums.zx
                               + (model.q + model.n * policy.intercept) * sums.z)
        values = values + 0.5 * (model.lam - model.n * policy.variance) * sums.z2m1
    return values


def _estimate(values: np.ndarray, bound: float, grid: PathGrid,
              seed: int) -> ValueEstimate:
    n_paths = values.size
    se = float(values.std(ddof=1) / math.sqrt(n_paths)) if n_paths > 1 else 0.0
    return ValueEstimate(
        value=float(values.mean()), std_error=se, truncation_bound=bound,
        n_paths=n_paths, dt=grid.dt, horizon=grid.horizon, seed=seed)


def mc_value(model: LqModel, policy: AffineGaussianPolicy, x0: float,
             grid: PathGrid, seed: int, n_paths: int, *,
             sample_actions: bool = False,
             allow_assumption_violation: bool = False) -> ValueEstimate:
    """Monte Carlo estimate of the discounted objective under ``policy``.

    Left-endpoint Riemann sum of the running integrand along
    Euler-Maruyama paths; the tail beyond the horizon is bounded via
    the moment oracle and returned, never silently dropped.  The bound
    is :func:`truncation_bound`'s, which holds for the optimal policy
    only: for any other ``policy`` it can be far smaller than the true
    tail.  With ``sample_actions`` the action integral is sampled
    instead of analytic (variance > 0 required).  The model is solved
    before any noise is drawn, and the tail bounded after the walk.
    """
    if sample_actions and policy.variance <= 0:
        raise ValueError("sample_actions requires a randomized policy")
    value = solve(
        model, allow_assumption_violation=allow_assumption_violation).value
    values = _per_path_values(model, policy, x0, grid, seed, n_paths,
                              sample_actions)
    bound = _tail_bound(model, value, policy, x0, grid.horizon)
    return _estimate(values, bound, grid, seed)


def mc_exploration_cost(model: LqModel, x0: float, grid: PathGrid, seed: int,
                        n_paths: int, *,
                        allow_assumption_violation: bool = False) -> ValueEstimate:
    """Monte Carlo estimate of the exploration cost (target lam/(2 rho)).

    Estimates w(x0) - v(x0) + lam/(2 rho) ln(2 pi e lam/(n - k2 d^2)):
    the optimal-policy entropy is state-independent, so its discounted
    integral enters as a deterministic constant.  Both legs run on the
    same per-path noise (common random numbers); the standard error is
    that of the per-path difference.  The optimal leg always samples its
    actions, so that reference models with degenerate diffusion still
    carry a genuine statistical error bar; the classical leg is
    deterministic in the action and has none to sample.
    """
    sol = solve(model, allow_assumption_violation=allow_assumption_violation)
    feedback = sol.classical_policy
    v_vals = _per_path_values(model, sol.policy, x0, grid, seed, n_paths, True)
    w_vals = _per_path_values(model, feedback, x0, grid, seed, n_paths, False)
    ent = model.lam / (2.0 * model.rho) * log_2pi_e_ratio(model.lam, sol.n2)
    diffs = w_vals - v_vals + ent
    bound = (_tail_bound(model, sol.value, sol.policy, x0, grid.horizon)
             + _tail_bound(model, sol.value, feedback, x0, grid.horizon))
    return _estimate(diffs, bound, grid, seed)
