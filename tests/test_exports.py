"""The package's exported names, pinned: adding or removing one means
editing this list on purpose."""

import ast
import types
from pathlib import Path

import exploratory_lq as xlq
from exploratory_lq import exact, forks, sde

EXPORTS = [
    # closed_form
    "QuadraticValue", "Solution", "classical_solution", "exploration_cost",
    "exploratory_solution", "hjb_residual", "k0_residual", "k1_residual",
    "k2_residual", "lambda_sweep", "policy_from_value", "softmax_density",
    "solution_record", "solve", "value_gap",
    # errors
    "ConfigError", "DegenerateLinearTermError", "ExploratoryLqError",
    "ModelValidationError", "NoConcaveRootError", "NonIntegrableDensityError",
    "NumericalError", "SimulationDivergedError", "UnsupportedRegimeError",
    # model
    "AffineGaussianPolicy", "DerivedCoeffs", "LqModel", "Violation",
    "assumption_bound", "check_model", "derived_coeffs", "validate",
    # moments
    "admissibility_decay", "classify_case", "decay_exponent_from_riccati",
    "integrate_moment_ode", "mean_curve", "second_moment_curve",
    # policy_eval
    "ValueEstimate", "integrand_coefficients", "mc_exploration_cost", "mc_value",
    "truncation_bound",
    # sde
    "PathGrid", "TrajectoryBatch", "exact_batch", "simulate_exploratory",
    "strong_errors",
]


def test_exported_names_are_the_pinned_48():
    exported = sorted(name for name, obj in vars(xlq).items()
                      if not name.startswith("__")
                      and not isinstance(obj, types.ModuleType))
    assert len(EXPORTS) == len(set(EXPORTS)) == 48
    assert exported == sorted(EXPORTS)


def test_exact_and_forks_import_nothing_from_sde():
    # sde imports both modules: an import back would be a cycle, and a
    # moved name re-exported by sde would be a second way to reach it.
    for module in (exact, forks):
        for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
            if isinstance(node, ast.Import):
                parts = [p for alias in node.names for p in alias.name.split(".")]
            elif isinstance(node, ast.ImportFrom):
                parts = (node.module or "").split(".") + [a.name for a in node.names]
            else:
                continue
            assert "sde" not in parts, f"{module.__name__} line {node.lineno}"
        defined = {name for name, obj in vars(module).items()
                   if getattr(obj, "__module__", None) == module.__name__}
        assert defined and not defined & set(vars(sde))
