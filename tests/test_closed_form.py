"""closed_form: Riccati roots, value/policy assembly, HJB residuals,
softmax reduction, equivalence, exploration cost, temperature sweeps.

Expected values are frozen from independent oracles: a polynomial
root-finder for the curvature quadratic, quadrature of the raw
Boltzmann numerator for the softmax density, and direct evaluation of
the ansatz equations for the residual checks.
"""

import decimal
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

import exploratory_lq as xlq
from exploratory_lq import closed_form
from exploratory_lq.closed_form import riccati_roots, solve_k0, solve_k1, solve_k2
from exploratory_lq.constants import ABS_TOL
from conftest import DS_MODEL, S1, random_valid_model

GOLDEN = 0.5 * (1.0 - math.sqrt(5.0))  # k2 of S1


def quadratic_roots_oracle(model):
    """Roots of the curvature equation via numpy's polynomial solver.

    rho a2 (n - a2 d^2) = (a2 beta - r)^2 + (a2(2a + c^2) - m)(n - a2 d^2)
    rearranged to den*a2^2 - num*a2 - (mn - r^2) = 0.
    """
    beta = model.b + model.c * model.d
    shift = model.rho - (2 * model.a + model.c ** 2)
    den = beta ** 2 + shift * model.d ** 2
    num = shift * model.n + 2 * beta * model.r - model.d ** 2 * model.m
    roots = np.roots([den, -num, -(model.m * model.n - model.r ** 2)])
    return np.sort(roots.real)


def concave_root_decimal(model, digits=50):
    """Concave root (num - sqrt(disc)) / (2 den) of the curvature
    quadratic in ``digits``-digit decimal arithmetic on the model's
    exact binary constants."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        a, b, c, d, m, n, r, rho = (decimal.Decimal(getattr(model, k))
                                    for k in ("a", "b", "c", "d", "m", "n", "r", "rho"))
        beta = b + c * d
        shift = rho - (2 * a + c * c)
        den = beta * beta + shift * d * d
        num = shift * n + 2 * beta * r - d * d * m
        disc = num * num - 4 * den * (r * r - m * n)
        return float((num - disc.sqrt()) / (2 * den))


class TestSolveK2:
    def test_s1_golden_ratio_root(self):
        k2 = solve_k2(S1)
        assert k2 == pytest.approx(GOLDEN, abs=1e-14)
        oracle = quadratic_roots_oracle(S1)
        assert k2 == pytest.approx(oracle[0], abs=1e-12)

    def test_s1_with_rho_two(self):
        model = S1.__class__(**{**S1.__dict__, "rho": 2.0})
        assert solve_k2(model) == pytest.approx(1.0 - math.sqrt(2.0), abs=1e-14)

    def test_state_independent_collapses_to_zero(self):
        model = xlq.LqModel(a=0.3, b=1, c=0.2, d=0.5, m=0, n=1, r=0, p=0,
                            q=0.7, rho=1, lam=0.2)
        assert solve_k2(model) == 0.0

    def test_concave_root_selection(self, rng):
        for _ in range(300):
            model = random_valid_model(rng)
            k2 = solve_k2(model)
            assert k2 < 0  # m > 0 forces strict concavity
            oracle = quadratic_roots_oracle(model)
            assert k2 == pytest.approx(oracle[0], rel=1e-9, abs=1e-9)
            scale = max(1.0, abs(k2))
            assert abs(xlq.k2_residual(model, k2)) < 1e-10 * scale

    def test_convex_root_is_diagnostic_only(self, rng):
        model = random_valid_model(rng)
        concave, convex = riccati_roots(model)
        assert concave < 0 < convex
        assert solve_k2(model) == concave
        assert abs(xlq.k2_residual(model, convex)) < 1e-9

    def test_small_quadratic_term_does_not_cancel(self):
        # c = d = 0 and a tiny b make den = b^2 tiny next to num = rho n,
        # where num - sqrt(disc) cancels: the textbook form loses up to
        # every digit of k2 here (one draw gave k2 = 0.0 with m > 0).
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(1500):
            model = replace(random_valid_model(rng), c=0.0, d=0.0,
                            b=float(rng.choice([-1.0, 1.0])
                                    * 10.0 ** rng.uniform(-6.0, -2.0)),
                            rho=float(rng.uniform(5.0, 60.0)))
            assert xlq.check_model(model) == []
            k2 = solve_k2(model)
            ref = concave_root_decimal(model)
            assert k2 < 0
            worst = max(worst, abs(k2 - ref) / abs(ref))
        assert worst <= 1e-12

    def test_noisier_environment_ladder_is_certified(self):
        # The models and control-volatility ladder of
        # test_acceptance::test_11 (seed 414243 + 8, rho = 50).
        rng = np.random.default_rng(414243 + 8)
        xs = np.linspace(-10.0, 10.0, 41)
        worst = 0.0
        for _ in range(200):
            model = random_valid_model(rng, rho=50.0)
            for d in np.linspace(0.0, 3.0, 31):
                rung = replace(model, d=float(d))
                sol = xlq.solve(rung)
                worst = max(worst, float(np.max(np.abs(xlq.hjb_residual(
                    rung, sol.value, xs, "exploratory")))))
        assert worst <= 1e-9

    def test_negative_discriminant_has_no_concave_root(self):
        # rho = 0 fails validation, which riccati_roots does not run:
        # den = 1, num = 0, disc = -4 (r^2 - m n) = -4.
        model = xlq.LqModel(a=1, b=1, c=0, d=0, m=0, n=1, r=1, p=0, q=0,
                            rho=0, lam=1)
        with pytest.raises(xlq.NoConcaveRootError, match="negative discriminant"):
            riccati_roots(model)

    def test_degenerate_curvature_equation_has_no_concave_root(self):
        # b = c = d = 0 and rho = 2a: both the quadratic and the linear
        # coefficient vanish.
        model = xlq.LqModel(a=0.5, b=0, c=0, d=0, m=1, n=1, r=0, p=0, q=0,
                            rho=1, lam=1)
        with pytest.raises(xlq.NoConcaveRootError, match="degenerate"):
            riccati_roots(model)


class TestSolveK1:
    def test_s1_has_no_linear_term(self):
        assert solve_k1(S1, solve_k2(S1)) == 0.0

    def test_s1_with_state_linear_reward(self):
        model = xlq.LqModel(a=0, b=1, c=0, d=0, m=1, n=1, r=0, p=1, q=0,
                            rho=1, lam=0.2)
        k2 = solve_k2(model)
        k1 = solve_k1(model, k2)
        assert k1 == pytest.approx(1.0 / (k2 - 1.0), abs=1e-14)
        assert abs(xlq.k1_residual(model, k2, k1)) < 1e-12

    def test_state_independent_is_zero(self):
        model = xlq.LqModel(a=0.4, b=1, c=0, d=0, m=0, n=2, r=0, p=0, q=1,
                            rho=1.5, lam=0.2)
        assert solve_k1(model, 0.0) == 0.0

    def test_residual_on_random_models(self, rng):
        for _ in range(300):
            model = random_valid_model(rng)
            k2 = solve_k2(model)
            k1 = solve_k1(model, k2)
            assert abs(xlq.k1_residual(model, k2, k1)) < 1e-10 * max(1, abs(k1))

    def test_denominator_is_bounded_away_from_zero_when_valid(self, rng):
        """The denominator equals (A1 - rho)(n - k2 d^2) and the decay
        exponent forces A1 < rho/2, so no validated model degenerates."""
        for _ in range(200):
            model = random_valid_model(rng)
            k2 = solve_k2(model)
            n2 = model.n - k2 * model.d ** 2
            beta = model.b + model.c * model.d
            den = k2 * model.b * beta + (model.a - model.rho) * n2 - model.b * model.r
            assert den < -0.4 * model.rho * n2

    def test_degenerate_denominator_reported(self):
        # a = rho with k2 = 0 (state-independent) zeroes the denominator.
        model = xlq.LqModel(a=1.0, b=0, c=0, d=0, m=0, n=1, r=0, p=1, q=0,
                            rho=1.0, lam=0.2)
        with pytest.raises(xlq.DegenerateLinearTermError):
            solve_k1(model, 0.0)


class TestSolveK0:
    def test_s1_entropy_annuity(self):
        # 0.1 (ln(0.4 pi e) - 1) = 0.1 ln(0.4 pi), high-precision frozen.
        k0 = solve_k0(S1, GOLDEN, 0.0)
        assert k0 == pytest.approx(0.022843915397524511, abs=1e-15)

    def test_state_independent_benchmark(self):
        # q^2/(2 rho n) + (lam/2rho)(ln(2 pi e lam/n) - 1) = 0.5 + ln(pi e) - 1
        model = xlq.LqModel(a=0, b=1, c=0, d=0, m=0, n=2, r=0, p=0, q=1,
                            rho=0.5, lam=1.0)
        k0 = solve_k0(model, 0.0, 0.0)
        assert k0 == pytest.approx(0.5 + math.log(math.pi), abs=1e-14)
        assert k0 == pytest.approx(1.6447298858494002, abs=1e-14)

    def test_entropy_term_zeroed_by_construction(self):
        # Choose lam so ln(2 pi e lam/(n - k2 d^2)) = 1: lam = n2/(2 pi).
        model = xlq.LqModel(a=0, b=1, c=0, d=0, m=1, n=1, r=0, p=0, q=0.3,
                            rho=1, lam=1.0 / (2 * math.pi))
        k2 = solve_k2(model)
        assert model.n - k2 * model.d ** 2 == 1.0
        k1 = solve_k1(model, k2)
        k0 = solve_k0(model, k2, k1)
        expected = (k1 * model.b - model.q) ** 2 / (2 * model.rho)
        assert k0 == pytest.approx(expected, abs=1e-14)

    def test_rejects_nonpositive_denominator(self):
        with pytest.raises(xlq.NonIntegrableDensityError):
            solve_k0(S1.__class__(**{**S1.__dict__, "d": 2.0}), 1.0, 0.0)

    def test_residual_on_random_models(self, rng):
        for _ in range(300):
            model = random_valid_model(rng)
            k2 = solve_k2(model)
            k1 = solve_k1(model, k2)
            k0 = solve_k0(model, k2, k1)
            assert abs(xlq.k0_residual(model, k2, k1, k0)) < 1e-10 * max(1, abs(k0))


class TestResidualDomain:
    # DS_MODEL has n = 2 and d = 1, so k2 = 2 zeroes n - k2 d^2, which
    # every residual divides by.
    @pytest.mark.parametrize("residual", [
        lambda k2: xlq.k2_residual(DS_MODEL, k2),
        lambda k2: xlq.k1_residual(DS_MODEL, k2, 0.3),
        lambda k2: xlq.k0_residual(DS_MODEL, k2, 0.3, 0.1)],
        ids=["k2", "k1", "k0"])
    def test_vanishing_denominator_named(self, residual):
        with pytest.raises(xlq.NonIntegrableDensityError, match=r"n - k2\*d\^2"):
            residual(2.0)

    def test_negative_denominator(self):
        # The convex root lies where n - k2 d^2 < 0; k2 and k1 residuals
        # stay defined there, while k0's entropy term is not.
        assert math.isfinite(xlq.k2_residual(DS_MODEL, 3.0))
        assert math.isfinite(xlq.k1_residual(DS_MODEL, 3.0, 0.3))
        with pytest.raises(xlq.NonIntegrableDensityError, match=r"n - k2\*d\^2"):
            xlq.k0_residual(DS_MODEL, 3.0, 0.3, 0.1)


class TestExploratorySolution:
    def test_s1_policy(self):
        value, policy = closed_form.exploratory_solution(S1)
        assert policy.slope == pytest.approx(GOLDEN, abs=1e-14)
        assert policy.intercept == 0.0
        assert policy.variance == pytest.approx(0.2, abs=1e-15)

    def test_state_independent_policy_constant(self):
        value, policy = closed_form.exploratory_solution(
            xlq.LqModel(a=0, b=1, c=0, d=0, m=0, n=2, r=0, p=0, q=1,
                        rho=0.5, lam=1.0))
        assert policy.slope == 0.0
        assert policy.intercept == pytest.approx(-0.5, abs=1e-15)
        assert policy.variance == pytest.approx(0.5, abs=1e-15)
        assert value.k2 == 0.0 and value.k1 == 0.0

    def test_volatile_control_shrinks_variance(self):
        model = S1.__class__(**{**S1.__dict__, "d": 1.0})
        _, policy = closed_form.exploratory_solution(model)
        assert policy.variance < model.lam / model.n  # k2 < 0 strictly

    def test_invalid_model_rejected(self):
        with pytest.raises(xlq.ModelValidationError):
            closed_form.exploratory_solution(
                S1.__class__(**{**S1.__dict__, "r": 1.5}))


class TestSolution:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), state_dependent=st.booleans())
    def test_one_solve_is_consistent(self, seed, state_dependent):
        model = random_valid_model(np.random.default_rng(seed),
                                   state_dependent=state_dependent)
        sol = xlq.solve(model)
        k2, k1, k0 = sol.value.k2, sol.value.k1, sol.value.k0
        assert abs(xlq.k2_residual(model, k2)) < 1e-10 * max(1.0, abs(k2))
        assert abs(xlq.k1_residual(model, k2, k1)) < 1e-10 * max(1.0, abs(k1))
        assert abs(xlq.k0_residual(model, k2, k1, k0)) < 1e-10 * max(1.0, abs(k0))
        assert sol.n2 == model.n - k2 * model.d ** 2 > 0
        assert sol.policy.variance * sol.n2 == pytest.approx(model.lam, rel=1e-15)
        assert sol.classical_policy.variance == 0.0
        assert (sol.classical_value.k2, sol.classical_value.k1) == (k2, k1)
        for x in (-10.0, 0.0, 10.0):
            assert sol.classical_policy.mean(x) == sol.policy.mean(x)  # same floats
        coeffs = xlq.derived_coeffs(model, sol.policy)
        if abs(model.d) > ABS_TOL and abs(coeffs.b1) > ABS_TOL:
            assert xlq.derived_coeffs(
                model, xlq.policy_from_value(model, sol.value)) == coeffs


class TestClassicalSolution:
    def test_s1(self):
        wvalue, feedback = closed_form.classical_solution(S1)
        assert wvalue.k0 == 0.0
        assert feedback.slope == pytest.approx(GOLDEN, abs=1e-14)
        assert feedback.intercept == 0.0
        assert feedback.variance == 0.0

    def test_state_independent(self):
        wvalue, feedback = closed_form.classical_solution(
            xlq.LqModel(a=0, b=1, c=0, d=0, m=0, n=2, r=0, p=0, q=1,
                        rho=0.5, lam=1.0))
        assert wvalue.k0 == pytest.approx(0.5, abs=1e-15)
        assert feedback.mean(123.0) == pytest.approx(-0.5, abs=1e-15)

    def test_feedback_equals_policy_mean(self, rng):
        for _ in range(50):
            model = random_valid_model(rng)
            _, policy = closed_form.exploratory_solution(model)
            _, feedback = closed_form.classical_solution(model)
            for x in (-10.0, 0.0, 10.0):
                assert feedback.mean(x) == policy.mean(x)  # same floats


class TestHjbResidual:
    def test_solution_solves_equation(self):
        value = xlq.solve(S1).value
        assert abs(xlq.hjb_residual(S1, value, 0.0, "exploratory")) < 1e-10

    def test_constant_shift_scales_by_rho(self):
        value = xlq.solve(S1).value
        shifted = xlq.QuadraticValue(value.k2, value.k1, value.k0 + 1.0)
        res = xlq.hjb_residual(S1, shifted, 0.0, "exploratory")
        assert res == pytest.approx(S1.rho * 1.0, abs=1e-10)

    def test_classical_grid_sweep(self):
        wval = xlq.solve(S1).classical_value
        grid = np.arange(-5.0, 5.5, 1.0)
        res = xlq.hjb_residual(S1, wval, grid, "classical")
        assert np.max(np.abs(res)) < 1e-9

    def test_random_models_both_kinds(self, rng):
        grid = np.linspace(-10, 10, 41)
        for _ in range(100):
            model = random_valid_model(rng)
            sol = xlq.solve(model)
            value, wval = sol.value, sol.classical_value
            assert np.max(np.abs(xlq.hjb_residual(model, value, grid,
                                                  "exploratory"))) < 1e-9
            assert np.max(np.abs(xlq.hjb_residual(model, wval, grid,
                                                  "classical"))) < 1e-9

    def test_unknown_kind_named(self):
        value = xlq.solve(S1).value
        with pytest.raises(ValueError, match="unknown HJB kind 'bogus'"):
            xlq.hjb_residual(S1, value, 0.0, "bogus")

    def test_rejects_bad_curvature(self):
        model = S1.__class__(**{**S1.__dict__, "d": 2.0})
        with pytest.raises(xlq.NonIntegrableDensityError):
            xlq.hjb_residual(model, xlq.QuadraticValue(1.0, 0, 0), 0.0,
                             "exploratory")


class TestSoftmaxDensity:
    def test_s1_at_origin(self):
        value = xlq.solve(S1).value
        # N(0 | 0, 0.2) = 1/sqrt(0.4 pi), frozen at high precision.
        assert xlq.softmax_density(S1, value, 0.0, 0.0) == pytest.approx(
            0.8920620580763856, abs=1e-14)

    def test_normalization_by_quadrature(self):
        value = xlq.solve(S1).value
        total, _ = integrate.quad(
            lambda u: xlq.softmax_density(S1, value, 0.7, u), -50, 50)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_matches_raw_boltzmann_numerator(self):
        """Reconstruct the density from its definition: exponentiate
        (r + sigma^2 v''/2 + b v')/lam and normalize by quadrature."""
        model = DS_MODEL
        value = xlq.solve(model).value

        def numerator(u, x):
            sig = model.c * x + model.d * u
            drift = model.a * x + model.b * u
            expo = (model.reward(x, u) + 0.5 * sig * sig * value.k2
                    + drift * value.derivative(x)) / model.lam
            return math.exp(expo)

        for x in (-1.0, 0.0, 1.3):
            norm, _ = integrate.quad(lambda u: numerator(u, x), -40, 40)
            for u in (-1.0, 0.2, 0.9):
                direct = numerator(u, x) / norm
                assert xlq.softmax_density(model, value, x, u) == pytest.approx(
                    direct, rel=1e-7)

    def test_mode_equals_policy_mean(self):
        sol = xlq.solve(S1)
        value, policy = sol.value, sol.policy
        us = np.linspace(-3, 3, 600001)
        dens = xlq.softmax_density(S1, value, 1.0, us)
        assert us[np.argmax(dens)] == pytest.approx(policy.mean(1.0), abs=1e-5)

    def test_equals_policy_density_on_grid(self, rng):
        for _ in range(50):
            model = random_valid_model(rng)
            sol = xlq.solve(model)
            value, policy = sol.value, sol.policy
            xs = np.linspace(-2, 2, 21)[:, None]
            us = policy.mean(xs) + policy.std * np.linspace(-4, 4, 21)[None, :]
            soft = xlq.softmax_density(model, value, xs, us)
            direct = policy.density(xs, us)
            assert np.max(np.abs(soft - direct) / direct) < 1e-10

    def test_non_integrable_signalled(self):
        model = S1.__class__(**{**S1.__dict__, "d": 1.5})
        with pytest.raises(xlq.NonIntegrableDensityError):
            xlq.softmax_density(model, xlq.QuadraticValue(1.0, 0.0, 0.0),
                                0.0, 0.0)


class TestEquivalenceAndCost:
    def test_value_gap_formula(self, rng):
        xs = np.linspace(-8, 8, 11)
        for _ in range(100):
            model = random_valid_model(rng)
            sol = xlq.solve(model)
            gap = xlq.value_gap(model)
            diffs = sol.value(xs) - sol.classical_value(xs)
            assert np.max(np.abs(diffs - gap)) < 1e-12
            assert np.max(np.abs(diffs - diffs[0])) < 1e-12  # constant in x

    @pytest.mark.parametrize("rho", [0.0, math.nan])
    def test_value_gap_validates_the_model(self, rho):
        with pytest.raises(xlq.ModelValidationError):
            xlq.value_gap(S1.__class__(**{**S1.__dict__, "rho": rho}))

    def test_cost_values(self):
        assert xlq.exploration_cost(
            S1.__class__(**{**S1.__dict__, "lam": 1.0, "rho": 0.5})) == 1.0
        assert xlq.exploration_cost(S1) == pytest.approx(0.1, abs=1e-16)

    def test_decomposition_independent_of_state(self):
        for x in (-3.0, 0.0, 7.0):
            assert xlq.solve(S1).cost_decomposition(x) == pytest.approx(
                0.1, abs=1e-12)

    def test_cost_universality(self, rng):
        from dataclasses import replace

        lam, rho = 0.7, 1.3
        costs = set()
        for _ in range(100):
            model = replace(random_valid_model(rng, rho=5.0), lam=lam, rho=rho)
            if xlq.check_model(model):
                continue  # rho now below the bound; skip
            costs.add(xlq.exploration_cost(model))
        assert costs == {lam / (2.0 * rho)}


class TestLambdaSweep:
    def test_gap_values_and_decay(self):
        points = xlq.lambda_sweep(S1, [0.2, 0.02, 0.002])
        gaps = [p.value_gap for p in points]
        # Frozen from the defining formula (lam/2rho)(ln(2 pi e lam/n2)-1).
        assert gaps[0] == pytest.approx(0.022843915397524511, abs=1e-14)
        assert gaps[1] == pytest.approx(-0.020741459390188006, abs=1e-14)
        assert gaps[2] == pytest.approx(-0.004376731032012846, abs=1e-14)

    def test_mean_constant_and_variance_linear(self):
        points = xlq.lambda_sweep(S1, [0.2, 0.02, 0.002], probe_x=1.0)
        means = {p.mean_at_probe for p in points}
        assert len(means) == 1  # bitwise identical
        assert points[0].variance / points[1].variance == pytest.approx(10.0, abs=0)
        assert points[1].variance / points[2].variance == pytest.approx(10.0, abs=0)

    def test_gap_vanishes(self):
        lams = [10.0 ** -k for k in range(1, 7)]
        gaps = np.abs([p.value_gap for p in xlq.lambda_sweep(S1, lams)])
        assert np.all(np.diff(gaps) < 0)
        assert gaps[-1] < 1e-5

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ValueError):
            xlq.lambda_sweep(S1, [0.1, 0.0])


class TestSolutionRecord:
    def test_record_fields(self):
        record = closed_form.solution_record(S1)
        assert set(record) == {"k2", "k1", "k0", "alpha0", "policy", "cost",
                               "assumption_bound"}
        assert record["cost"] == pytest.approx(0.1)
        assert record["policy"]["variance"] == pytest.approx(0.2)
