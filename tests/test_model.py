"""model_core: assumption bound, validation, derived coefficients."""

import math

import numpy as np
import pytest

from exploratory_lq import (
    AffineGaussianPolicy,
    LqModel,
    ModelValidationError,
    assumption_bound,
    check_model,
    derived_coeffs,
    solve,
    validate,
)
from conftest import S1, random_valid_model


def mk(**kw):
    base = dict(a=0, b=1, c=0, d=0, m=1, n=1, r=0, p=0, q=0, rho=1, lam=0.2)
    base.update(kw)
    return LqModel(**base)


class TestAssumptionBound:
    def test_all_terms_vanish(self):
        assert assumption_bound(mk(a=0, b=1, c=0, d=0, n=1, r=0)) == 0.0

    def test_drift_and_volatility_terms(self):
        # 2a + c^2 with the max-term at zero (r = 0).
        assert assumption_bound(mk(a=1, c=1, b=0.7, d=0.3, n=2.0, r=0)) == 3.0

    def test_negative_max_term_clips_to_zero(self):
        # (d^2 r^2 - 2 n r (b + cd))/n = (1 - 2)/1 = -1 -> clipped.
        model = mk(a=0, b=1, c=0, d=1, n=1, r=1)
        assert assumption_bound(model) == 0.0

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            assumption_bound(mk(n=0.0))

    def test_sign_flip_invariances(self, rng):
        for _ in range(200):
            model = random_valid_model(rng)
            # r -> -r is neutral when b + cd = 0 (construct that case).
            if abs(model.d) > 1e-9:
                b0 = -model.c * model.d
                base = mk(a=model.a, b=b0, c=model.c, d=model.d, n=model.n,
                          r=model.r, m=model.m, rho=model.rho, lam=model.lam)
                flipped = mk(a=model.a, b=b0, c=model.c, d=model.d, n=model.n,
                             r=-model.r, m=model.m, rho=model.rho, lam=model.lam)
                assert assumption_bound(base) == pytest.approx(
                    assumption_bound(flipped), abs=1e-14)
            # (c, d) -> (-c, -d) preserves b + cd, c^2 and d^2.
            mirrored = mk(a=model.a, b=model.b, c=-model.c, d=-model.d,
                          n=model.n, r=model.r, m=model.m, rho=model.rho,
                          lam=model.lam)
            same = mk(a=model.a, b=model.b, c=model.c, d=model.d,
                      n=model.n, r=model.r, m=model.m, rho=model.rho,
                      lam=model.lam)
            assert assumption_bound(mirrored) == pytest.approx(
                assumption_bound(same), abs=1e-14)


class TestValidate:
    def test_reference_model_is_valid(self):
        # r^2 < mn (0 < 1) and rho = 1 > bound = 0, checked by hand.
        assert validate(S1) is S1

    def test_nonpositive_n_rejected(self):
        with pytest.raises(ModelValidationError) as err:
            validate(mk(n=0.0))
        assert any(v.condition == "n>0" for v in err.value.violations)

    def test_cross_weight_too_large(self):
        with pytest.raises(ModelValidationError) as err:
            validate(mk(m=1, n=1, r=1.5))
        assert any(v.condition == "r^2<mn" for v in err.value.violations)

    def test_equality_r2_eq_mn_rejected(self):
        with pytest.raises(ModelValidationError) as err:
            validate(mk(m=1, n=1, r=1.0))
        assert any(v.condition == "r^2<mn" for v in err.value.violations)

    def test_negative_state_weight_rejected(self):
        with pytest.raises(ModelValidationError) as err:
            validate(mk(m=-0.5))
        assert [(v.condition, v.message) for v in err.value.violations] == \
            [("m>=0", "m=-0.5")]

    def test_state_independent_boundary_admitted(self):
        validate(mk(m=0, r=0, p=0))

    def test_discount_bound_enforced_for_state_dependent(self):
        bad = mk(a=1.0, rho=1.0)  # bound = 2, rho = 1
        with pytest.raises(ModelValidationError) as err:
            validate(bad)
        assert any(v.condition == "rho>assumption_bound"
                   for v in err.value.violations)
        # The documented override forgives exactly this condition.
        validate(bad, allow_assumption_violation=True)

    def test_override_does_not_forgive_hard_invariants(self):
        with pytest.raises(ModelValidationError):
            validate(mk(n=-1.0, a=1.0, rho=1.0),
                     allow_assumption_violation=True)

    def test_violations_name_conditions_and_values(self):
        violations = check_model(mk(n=0.0, rho=-1.0, lam=0.0))
        names = {v.condition for v in violations}
        assert {"n>0", "rho>0", "lambda>0"} <= names
        assert any("0.0" in v.message for v in violations)

    @pytest.mark.parametrize("bad", [True, np.True_, "0.5", None, 1 + 0j,
                                     np.array([1.0]), math.nan])
    def test_a_constant_that_is_not_a_finite_real_is_reported_alone(self, bad):
        # Named by check_model instead of a TypeError from a comparison;
        # n = -1 is not reported beside it.
        violations = check_model(mk(c=bad, n=-1.0))
        assert [(v.condition, v.message) for v in violations] == [("finite", f"c={bad!r}")]

    def test_acceptance_matches_solvability(self, rng):
        """validate() accepts exactly the models the solver pipeline
        accepts, and state-dependent acceptance implies k2 < 0."""
        accepted = rejected = 0
        for _ in range(300):
            model = random_valid_model(rng)
            if rng.uniform() < 0.5:
                # Perturb into (possible) invalidity.
                kind = rng.integers(0, 3)
                if kind == 0:
                    model = mk(a=model.a, b=model.b, c=model.c, d=model.d,
                               m=model.m, n=model.n,
                               r=math.sqrt(model.m * model.n) * 1.2,
                               rho=model.rho, lam=model.lam)
                elif kind == 1:
                    model = mk(a=1.5, b=model.b, c=model.c, d=model.d,
                               m=model.m, n=model.n, r=0.0,
                               rho=1.0, lam=model.lam)  # bound 3 > rho
                else:
                    model = mk(a=model.a, b=model.b, c=model.c, d=model.d,
                               m=model.m, n=-model.n, r=0.0,
                               rho=model.rho, lam=model.lam)
            valid = not check_model(model)
            try:
                value = solve(model).value
                solved = True
            except Exception:
                solved = False
            assert solved == valid
            if valid:
                accepted += 1
                if model.m > 0:
                    assert value.k2 < 0
            else:
                rejected += 1
        assert accepted > 50 and rejected > 50


class TestDerivedCoeffs:
    def test_s1_optimal_policy(self):
        sol = solve(S1)
        value, policy = sol.value, sol.policy
        coeffs = derived_coeffs(S1, policy)
        assert coeffs.a1 == pytest.approx(value.k2, abs=1e-15)
        assert coeffs.a2 == 0.0
        assert coeffs.b1 == 0.0
        assert coeffs.b2 == 0.0
        assert coeffs.c1 == 0.0  # d = 0 kills the volatility terms

    def test_zero_policy(self):
        model = mk(a=0.4, c=-0.3)
        coeffs = derived_coeffs(model, AffineGaussianPolicy(0.0, 0.0, 0.0))
        assert (coeffs.a1, coeffs.a2, coeffs.b1, coeffs.b2, coeffs.c1) == (
            model.a, 0.0, model.c, 0.0, 0.0)

    def test_direct_arithmetic(self):
        model = mk(a=0, b=1, c=0, d=1)
        coeffs = derived_coeffs(model, AffineGaussianPolicy(-1.0, 2.0, 0.5))
        assert (coeffs.a1, coeffs.a2, coeffs.b1, coeffs.b2, coeffs.c1) == (
            -1.0, 2.0, -1.0, 2.0, 0.5)

    def test_linearity_in_policy_and_c1_independence(self, rng):
        for _ in range(100):
            model = random_valid_model(rng)
            s2 = rng.uniform(0.0, 2.0)
            a1, c1 = rng.normal(size=2)
            a2, c2 = rng.normal(size=2)
            lam1, lam2 = rng.normal(size=2)
            mixed = derived_coeffs(model, AffineGaussianPolicy(
                lam1 * a1 + lam2 * a2, lam1 * c1 + lam2 * c2, s2))
            one = derived_coeffs(model, AffineGaussianPolicy(a1, c1, s2))
            two = derived_coeffs(model, AffineGaussianPolicy(a2, c2, s2))
            for fieldname in ("a1", "a2", "b1", "b2"):
                base = model.a if fieldname == "a1" else (
                    model.c if fieldname == "b1" else 0.0)
                lin = (lam1 * (getattr(one, fieldname) - base)
                       + lam2 * (getattr(two, fieldname) - base) + base)
                assert getattr(mixed, fieldname) == pytest.approx(lin, abs=1e-10)
            assert mixed.c1 == one.c1 == two.c1  # independent of (slope, intercept)

    def test_rejects_negative_variance(self):
        with pytest.raises(ValueError):
            AffineGaussianPolicy(0.0, 0.0, -1e-3)

    @pytest.mark.parametrize("field", ["slope", "intercept", "variance"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_field(self, field, bad):
        # A NaN variance would give a NaN entropy and NaN Monte Carlo
        # paths instead of an error naming the input.
        fields = {**dict(slope=-0.5, intercept=0.3, variance=0.7), field: bad}
        with pytest.raises(ValueError, match=f"^policy {field} must be finite"):
            AffineGaussianPolicy(**fields)


class TestPolicy:
    def test_density_integrates_to_one(self):
        policy = AffineGaussianPolicy(-0.5, 0.3, 0.7)
        u = np.linspace(-30, 30, 20001)
        total = np.trapezoid(policy.density(1.2, u), u)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_dirac_policy_has_no_density_or_entropy(self):
        dirac = AffineGaussianPolicy(-0.5, 0.3, 0.0)
        with pytest.raises(ValueError, match="Dirac policy has no density"):
            dirac.density(1.0, 0.0)
        with pytest.raises(ValueError, match="variance = 0"):
            dirac.entropy()

    def test_entropy_matches_quadrature(self):
        policy = AffineGaussianPolicy(0.0, 0.1, 0.4)
        u = np.linspace(-20, 20, 40001)
        pdf = policy.density(0.0, u)
        mask = pdf > 0
        num = -np.trapezoid(np.where(mask, pdf * np.log(np.where(mask, pdf, 1.0)), 0.0), u)
        assert policy.entropy() == pytest.approx(num, abs=1e-6)
