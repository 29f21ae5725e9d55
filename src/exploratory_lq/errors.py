"""Exception types raised by the library.

The CLI maps these onto exit codes: configuration problems -> 1,
model validation failures -> 2, numerical failures -> 3.
"""


class ExploratoryLqError(Exception):
    """Base class for all library errors."""


class ConfigError(ExploratoryLqError):
    """Malformed, missing or unknown configuration input."""


class ModelValidationError(ExploratoryLqError):
    """One or more model invariants are violated.

    Carries the list of Violation records so callers can name each
    failed condition.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(v.describe() for v in self.violations)
        super().__init__(f"model validation failed: {lines}")

    def __reduce__(self):
        # Pickled as its records, so a forked child can send it back whole.
        return type(self), (self.violations,)


class NumericalError(ExploratoryLqError):
    """Base class for numerical failures (degeneracy, divergence)."""


class NoConcaveRootError(NumericalError):
    """The discriminant of the value-curvature quadratic is negative."""


class DegenerateLinearTermError(NumericalError):
    """The linear-coefficient equation has a (near-)vanishing denominator."""


class NonIntegrableDensityError(NumericalError):
    """The Boltzmann numerator is not integrable (N - D^2 v'' <= 0)."""


class SimulationDivergedError(NumericalError):
    """A Monte Carlo estimate is unusable because sample paths diverged."""


class UnsupportedRegimeError(NumericalError):
    """No explicit path solution is known for this parameter regime."""
