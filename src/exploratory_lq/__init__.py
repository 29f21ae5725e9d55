"""Entropy-regularized exploratory linear-quadratic control laboratory.

Closed-form solvers for the regularized and classical LQ problems,
Euler-Maruyama simulation of the exploratory dynamics, exact-path and
moment oracles, and Monte Carlo value estimation that cross-validates
every closed form.
"""

from .closed_form import (
    QuadraticValue,
    Solution,
    exploration_cost,
    hjb_residual,
    k0_residual,
    k1_residual,
    k2_residual,
    lambda_sweep,
    policy_from_value,
    softmax_density,
    solve,
    value_gap,
)
from .errors import (
    ConfigError,
    DegenerateLinearTermError,
    ExploratoryLqError,
    ModelValidationError,
    NoConcaveRootError,
    NonIntegrableDensityError,
    NumericalError,
    SimulationDivergedError,
    UnsupportedRegimeError,
)
from .model import (
    AffineGaussianPolicy,
    DerivedCoeffs,
    LqModel,
    Violation,
    assumption_bound,
    check_model,
    derived_coeffs,
    validate,
)
from .moments import (
    admissibility_decay,
    classify_case,
    decay_exponent_from_riccati,
    integrate_moment_ode,
    mean_curve,
    second_moment_curve,
)
from .policy_eval import (
    ValueEstimate,
    integrand_coefficients,
    mc_exploration_cost,
    mc_value,
    truncation_bound,
)
from .sde import (
    PathGrid,
    TrajectoryBatch,
    exact_batch,
    simulate_exploratory,
    strong_errors,
)

__version__ = "0.1.0"
