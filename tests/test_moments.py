"""moment_oracle: closed forms vs the RK4 integrator, case dispatch,
Monte Carlo agreement, admissibility decay."""

import math
from dataclasses import replace

import numpy as np
import pytest

import exploratory_lq as xlq
from exploratory_lq.constants import RK_STEPS
from exploratory_lq.model import DerivedCoeffs
from conftest import DS_MODEL, S1, random_valid_model

CASE_COEFFS = {
    # Hand-picked representatives of the five dispatch branches; the
    # c/d boundary values are exact in binary (0.5^2 = 0.25).
    "a": DerivedCoeffs(a1=0.0, a2=0.7, b1=0.0, b2=0.4, c1=0.3),
    "b": DerivedCoeffs(a1=0.0, a2=0.5, b1=0.8, b2=-0.3, c1=0.2),
    "c": DerivedCoeffs(a1=-0.25, a2=0.3, b1=0.5, b2=0.2, c1=0.1),
    "d": DerivedCoeffs(a1=-0.125, a2=-0.4, b1=0.5, b2=0.1, c1=0.25),
    "e": DerivedCoeffs(a1=-0.9, a2=0.6, b1=0.5, b2=-0.2, c1=0.15),
}


def random_coeffs(rng):
    return DerivedCoeffs(
        a1=rng.uniform(-1.5, 1.0), a2=rng.uniform(-1.0, 1.0),
        b1=rng.uniform(-1.2, 1.2), b2=rng.uniform(-1.0, 1.0),
        c1=rng.uniform(0.0, 1.0))


def expm_second_moment(mpmath, c, x0, t, magnitude=False):
    """m(t) at 50 digits: (n, m, 1)(t) = exp(G t) (x0, x0^2, 1) for the
    moment generator G = [[A1, 0, A2], [2 beta, alpha, gamma], [0, 0, 0]].
    magnitude=True makes every entry of G and of the start nonnegative,
    which bounds the sum of the magnitudes of m's terms."""
    with mpmath.workdps(50):
        a1, a2, b1, b2, c1 = map(mpmath.mpf, (c.a1, c.a2, c.b1, c.b2, c.c1))
        gen = mpmath.matrix([[a1, 0, a2],
                             [2 * (a2 + b1 * b2), 2 * a1 + b1 * b1, b2 * b2 + c1],
                             [0, 0, 0]])
        start = [mpmath.mpf(x0), mpmath.mpf(x0) ** 2, 1]
        if magnitude:
            gen, start = gen.apply(abs), [abs(v) for v in start]
        flow = mpmath.expm(gen * t)
        return sum(flow[1, j] * start[j] for j in range(3))


class TestMeanCurve:
    def test_constant(self):
        coeffs = DerivedCoeffs(0.0, 0.0, 0.0, 0.0, 0.5)
        assert xlq.mean_curve(coeffs, 1.3, 2.0) == 1.3

    def test_exponential_decay(self):
        coeffs = DerivedCoeffs(-1.0, 0.0, 0.0, 0.0, 0.0)
        assert xlq.mean_curve(coeffs, 2.0, 1.0) == pytest.approx(
            2.0 * math.exp(-1.0), abs=1e-14)

    def test_linear_growth(self):
        coeffs = DerivedCoeffs(0.0, 3.0, 0.0, 0.0, 0.0)
        assert xlq.mean_curve(coeffs, 0.0, 2.0) == pytest.approx(6.0, abs=1e-14)

    def test_initial_condition(self, rng):
        for _ in range(50):
            coeffs = random_coeffs(rng)
            assert xlq.mean_curve(coeffs, 1.7, 0.0) == pytest.approx(1.7, abs=1e-14)

    def test_accurate_through_a1_zero(self):
        # The form (x0 + a2/a1) e^{a1 t} - a2/a1 cancels for small a1.
        # The reference is x0 e^{a1 t} + a2 (e^{a1 t} - 1)/a1 at 40
        # digits, and the error is measured against the curve's scale.
        mpmath = pytest.importorskip("mpmath")
        times = [0.0, 1e-3, 0.5, 2.0, 10.0]
        worst = 0.0
        for x0 in (1.0, -2.5):
            for a1 in (0.0, 1e-12, -1e-12, 2e-10, -2e-10, 1e-8, 3e-7, -3e-7,
                       1e-6, 1.5e-6, 2e-5, 1e-3, -0.618, 0.2, -1.0, 3.0):
                for a2 in (0.7, -0.5, 3.0):
                    coeffs = DerivedCoeffs(a1=a1, a2=a2, b1=0.3, b2=0.1, c1=0.2)
                    got = xlq.mean_curve(coeffs, x0, np.array(times))
                    with mpmath.workdps(40):
                        for t, value in zip(times, got):
                            a1t = mpmath.mpf(a1) * t
                            grow = mpmath.exp(a1t)
                            phi1 = (grow - 1) / a1t if a1t else 1
                            ref = x0 * grow + a2 * t * phi1
                            scale = abs(x0) * grow + abs(a2) * t * phi1
                            worst = max(worst, float(abs(value - ref) / scale))
        assert worst <= 1e-15


class TestSecondMomentClosedForms:
    def test_case_tags(self):
        for tag, coeffs in CASE_COEFFS.items():
            got, near = xlq.classify_case(coeffs)
            assert got == tag and not near

    def test_brownian_case_a(self):
        # A1 = B1 = 0, A2 = B2 = 0, c1 = sigma^2: m(t) = x0^2 + sigma^2 t.
        coeffs = DerivedCoeffs(0.0, 0.0, 0.0, 0.0, 0.7)
        assert xlq.second_moment_curve(coeffs, 1.5, 3.0) == pytest.approx(
            1.5 ** 2 + 0.7 * 3.0, abs=1e-14)

    def test_s1_optimal_decay(self):
        sol = xlq.solve(S1)
        value, policy = sol.value, sol.policy
        coeffs = xlq.derived_coeffs(S1, policy)
        for t in (0.5, 1.0, 2.0):
            assert xlq.second_moment_curve(coeffs, 1.0, t) == pytest.approx(
                math.exp(2 * value.k2 * t), rel=1e-12)

    def test_each_case_vs_integrator(self):
        for tag, coeffs in CASE_COEFFS.items():
            for kind, c in (("exploratory", coeffs),
                            ("classical", replace(coeffs, c1=0.0))):
                for t in (0.1, 1.0, 5.0):
                    closed = xlq.second_moment_curve(c, 1.0, t)
                    _, m_rk = xlq.integrate_moment_ode(
                        c.a1, c.a2, c.b1, c.b2, c.c1, 1.0, t)
                    assert closed == pytest.approx(float(m_rk), rel=1e-8), \
                        f"case {tag} {kind} t={t}"

    def test_randomized_vs_integrator(self, rng):
        draws = []
        for _ in range(200):
            coeffs = random_coeffs(rng)
            draws.append((coeffs, rng.uniform(0.1, 5.0)))
        # One batched RK4 pass over every (coeffs, t) draw.
        _, m_rk = xlq.integrate_moment_ode(
            *(np.array([getattr(c, f) for c, _ in draws])
              for f in ("a1", "a2", "b1", "b2", "c1")),
            1.0, np.array([t for _, t in draws]))
        for (coeffs, t), m in zip(draws, m_rk):
            closed = xlq.second_moment_curve(coeffs, 1.0, t)
            assert closed == pytest.approx(float(m), rel=1e-8, abs=1e-10)

    def test_case_b_converges_to_case_a(self):
        """Pointwise continuity of the closed forms as B1 -> 0.

        b2 = 0 keeps the forcing term independent of B1, so the gap is
        governed purely by alpha = B1^2 and shrinks quadratically.
        """
        base = DerivedCoeffs(0.0, 0.5, 0.0, 0.0, 0.2)
        target = xlq.second_moment_curve(base, 1.0, 2.0)
        prev_gap = None
        for b1 in (1e-3, 1e-5, 1e-7):
            approx = replace(base, b1=b1)
            got = xlq.second_moment_curve(approx, 1.0, 2.0)
            gap = abs(got - target)
            if prev_gap is not None:
                assert gap < prev_gap
            prev_gap = gap
        assert prev_gap < 1e-12

    @pytest.mark.parametrize("tag", ["a", "b", "c", "d"])
    def test_boundary_families_against_expm(self, tag):
        """Each boundary case, and coefficients up to CASE_TOL off it,
        against a 50-digit exponential of the moment generator.

        Tags 'c' and 'd' take the general form, exact through both of
        their boundaries.  Tags 'a' and 'b' take |A1| <= CASE_TOL as 0,
        which costs up to |A1| t of the curve's scale: m itself can be
        far smaller than its terms (x0 = -0.7 against a2 = 0.7 empties
        the mean at t = 1).
        """
        mpmath = pytest.importorskip("mpmath")
        move = {"a": lambda c, eps: replace(c, a1=eps / 2),   # alpha = eps
                "b": lambda c, eps: replace(c, a1=eps),
                "c": lambda c, eps: replace(c, a1=c.a1 + eps),
                "d": lambda c, eps: replace(c, a1=c.a1 + eps / 2)}[tag]
        times = (0.1, 1.0, 5.0, 10.0)
        worst = 0.0
        for eps in (0.0, 1e-12, -1e-12, 5e-11, -5e-11, 9e-11, -9e-11):
            for c1 in (CASE_COEFFS[tag].c1, 0.0):
                coeffs = move(replace(CASE_COEFFS[tag], c1=c1), eps)
                assert xlq.classify_case(coeffs) == (tag, False)
                for x0 in (1.0, -0.7):
                    got = xlq.second_moment_curve(coeffs, x0, np.array(times))
                    for t, value in zip(times, got):
                        ref = expm_second_moment(mpmath, coeffs, x0, t)
                        err = float(abs(float(value) - ref))
                        if tag in ("c", "d"):
                            worst = max(worst, err / float(ref))
                        else:
                            scale = expm_second_moment(mpmath, coeffs, x0, t,
                                                       magnitude=True)
                            worst = max(worst, err / float(scale)
                                        - abs(coeffs.a1) * t)
        assert worst <= 1e-14

    def test_near_boundary_routes_to_integrator(self):
        # a1 just above the dispatch tolerance: the general closed form
        # would divide by a1 ~ 1e-8 and lose half its digits.
        coeffs = DerivedCoeffs(1e-8, 0.5, 0.0, 0.3, 0.2)
        _, near = xlq.classify_case(coeffs)
        assert near
        got = xlq.second_moment_curve(coeffs, 1.0, 2.0)
        ref = xlq.second_moment_curve(replace(coeffs, a1=0.0), 1.0, 2.0)
        assert got == pytest.approx(ref, rel=1e-7)

    @pytest.mark.parametrize("kind", ["exploratory", "classical"])
    def test_near_boundary_array_equals_scalar_calls(self, kind):
        coeffs = DerivedCoeffs(1e-8, 0.5, 1e-7, 0.3,
                               0.2 if kind == "exploratory" else 0.0)
        assert xlq.classify_case(coeffs)[1]
        ts = np.array([0.0, 0.05, 0.5, 1.0, 2.0])
        got = xlq.second_moment_curve(coeffs, 1.3, ts)
        assert got[0] == 1.3 * 1.3
        for ti, gi in zip(ts, got):
            assert gi == xlq.second_moment_curve(coeffs, 1.3, float(ti))

    def test_exact_zero_below_tolerance_uses_closed_form(self):
        # Below the dispatch tolerance the value is treated as zero.
        coeffs = DerivedCoeffs(1e-12, 0.5, 0.0, 0.3, 0.2)
        tag, near = xlq.classify_case(coeffs)
        assert tag == "a" and not near


def reference_moment_ode(a1, a2, b1, b2, c1, x0, t):
    """The RK4 loop before it stepped in preallocated buffers, one
    np.stack per stage: the integrator must keep its bits."""
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


def assert_same_bits(got, want):
    assert [np.asarray(v).tobytes() for v in got] == [np.asarray(v).tobytes() for v in want]
    assert [np.shape(v) for v in got] == [np.shape(v) for v in want]


class TestIntegrator:
    def test_cli_nearband_curves_keep_their_bits(self):
        # The two curves `explq moments` integrates on the near-band model
        # (S1 with c = 1e-7), at its 41 nodes of dt 5e-4 x 4000 steps.
        model = replace(S1, c=1e-7)
        sol = xlq.solve(model)
        grid = xlq.PathGrid(dt=5e-4, n_steps=4000)
        times = grid.times()[np.unique(np.linspace(0, 4000, 41).astype(int))]
        for policy in (sol.policy, sol.classical_policy):
            c = xlq.derived_coeffs(model, policy)
            assert xlq.classify_case(c)[1]
            args = (c.a1, c.a2, c.b1, c.b2, c.c1, 1.0, times)
            assert_same_bits(xlq.integrate_moment_ode(*args), reference_moment_ode(*args))

    def test_a_batch_of_coefficient_sets_keeps_its_bits(self, rng):
        coeffs = [rng.uniform(-1.0, 1.0, 500) for _ in range(4)]
        args = (*coeffs, rng.uniform(0.0, 1.0, 500), rng.uniform(-2.0, 2.0),
                rng.uniform(0.0, 5.0, 500))
        assert_same_bits(xlq.integrate_moment_ode(*args), reference_moment_ode(*args))

    def test_scalar_time_keeps_its_bits(self):
        args = (-0.3, 0.4, 0.6, -0.2, 0.3, 1.1, 2.5)
        got = xlq.integrate_moment_ode(*args)
        assert all(np.ndim(v) == 0 for v in got)
        assert_same_bits(got, reference_moment_ode(*args))

    def test_time_broadcasts_against_coefficients(self):
        a1 = np.array([[-0.5], [0.2], [-1.0]])
        ts = np.array([0.0, 0.3, 1.0, 4.0])
        n, m = xlq.integrate_moment_ode(a1, 0.4, 0.6, -0.2, 0.3, 1.1, ts)
        assert n.shape == m.shape == (3, 4)
        for i, a in enumerate(a1[:, 0]):
            for j, t in enumerate(ts):
                n_ij, m_ij = xlq.integrate_moment_ode(a, 0.4, 0.6, -0.2, 0.3,
                                                      1.1, t)
                assert n[i, j] == n_ij and m[i, j] == m_ij


class TestMomentInvariants:
    def test_variance_nonnegative_and_noise_ordering(self, rng):
        ts = np.array([0.1, 0.5, 1.0, 2.0, 5.0])
        for _ in range(100):
            coeffs = random_coeffs(rng)
            n = np.atleast_1d(xlq.mean_curve(coeffs, 1.0, ts))
            m = np.atleast_1d(xlq.second_moment_curve(coeffs, 1.0, ts))
            mh = np.atleast_1d(xlq.second_moment_curve(
                replace(coeffs, c1=0.0), 1.0, ts))
            assert np.all(m - n ** 2 > -1e-8 * np.maximum(1, np.abs(m)))
            assert np.all(mh - n ** 2 > -1e-8 * np.maximum(1, np.abs(mh)))
            if coeffs.c1 > 0:
                assert np.all(m >= mh)  # exploration only adds variance
            assert float(xlq.second_moment_curve(coeffs, 1.0, 0.0)) == 1.0

    def test_monte_carlo_agreement(self):
        sol = xlq.solve(DS_MODEL)
        value, policy = sol.value, sol.policy
        coeffs = xlq.derived_coeffs(DS_MODEL, policy)
        grid = xlq.PathGrid(dt=5e-4, n_steps=4000)
        nodes = (1000, 2000, 4000)
        batch = xlq.simulate_exploratory(DS_MODEL, policy, 1.0, grid, 21,
                                         8000, record_paths=False,
                                         checkpoints=nodes)
        for node in nodes:
            t = node * grid.dt
            mc_mean, mc_m2, se_mean, se_m2 = batch.checkpoint_stats(node)
            assert abs(mc_mean - float(xlq.mean_curve(coeffs, 1.0, t))) < \
                4 * se_mean + 1e-3
            assert abs(mc_m2 - float(xlq.second_moment_curve(coeffs, 1.0, t))) < \
                4 * se_m2 + 2e-3

    def test_classical_process_shares_the_mean_curve(self):
        """The unregularized process under the optimal feedback has the
        same first moment n(t) and the classical second moment m_hat(t);
        checked by Monte Carlo rather than re-derivation."""
        sol = xlq.solve(DS_MODEL)
        coeffs = xlq.derived_coeffs(DS_MODEL, sol.classical_policy)
        grid = xlq.PathGrid(dt=5e-4, n_steps=2000)
        batch = xlq.simulate_exploratory(DS_MODEL, sol.classical_policy, 1.0,
                                         grid, 23, 8000, record_paths=False,
                                         checkpoints=(2000,))
        mc_mean, mc_m2, se_mean, se_m2 = batch.checkpoint_stats(2000)
        assert abs(mc_mean - float(xlq.mean_curve(coeffs, 1.0, 1.0))) < \
            4 * se_mean + 1e-3
        target = float(xlq.second_moment_curve(coeffs, 1.0, 1.0))
        assert abs(mc_m2 - target) < 4 * se_m2 + 2e-3


class TestAdmissibilityDecay:
    def test_s1_exponent(self):
        sol = xlq.solve(S1)
        value, policy = sol.value, sol.policy
        coeffs = xlq.derived_coeffs(S1, policy)
        exponent, decays = xlq.admissibility_decay(S1, coeffs)
        assert exponent == pytest.approx(2 * value.k2 - 1.0, abs=1e-14)
        assert decays

    def test_trivial_exponent(self):
        coeffs = DerivedCoeffs(0.0, 0.3, 0.0, 0.2, 0.1)
        model = replace(S1, rho=1.0)
        exponent, decays = xlq.admissibility_decay(model, coeffs)
        assert exponent == -1.0 and decays

    def test_expanded_form_matches_direct(self, rng):
        for _ in range(200):
            model = random_valid_model(rng)
            sol = xlq.solve(model)
            value, policy = sol.value, sol.policy
            coeffs = xlq.derived_coeffs(model, policy)
            direct, decays = xlq.admissibility_decay(model, coeffs)
            expanded = xlq.decay_exponent_from_riccati(model, value.k2)
            assert expanded == pytest.approx(direct, rel=1e-9, abs=1e-10)
            assert decays

    def test_near_bound_models_still_decay(self, rng):
        """Discount rates barely above the bound keep the exponent
        negative (the margin comes from k2 < 0, not from slack in rho)."""
        for _ in range(100):
            model = random_valid_model(rng, rho_margin=(1e-6, 1e-3))
            sol = xlq.solve(model)
            value, policy = sol.value, sol.policy
            coeffs = xlq.derived_coeffs(model, policy)
            exponent, decays = xlq.admissibility_decay(model, coeffs)
            assert decays, (model, exponent)

    def test_discounted_moment_vanishes(self, rng):
        for _ in range(50):
            model = random_valid_model(rng)
            sol = xlq.solve(model)
            value, policy = sol.value, sol.policy
            coeffs = xlq.derived_coeffs(model, policy)
            exponent, decays = xlq.admissibility_decay(model, coeffs)
            assert decays
            horizon = 50.0 / model.rho
            tail = math.exp(-model.rho * horizon) * xlq.second_moment_curve(
                coeffs, 1.0, horizon)
            assert tail < 1e-6 * 1.0  # below 1e-6 * m(0)


class TestMomentCurvesOnTimeArrays:
    def test_values_and_tags(self):
        sol = xlq.solve(DS_MODEL)
        coeffs = xlq.derived_coeffs(DS_MODEL, sol.policy)
        classical = xlq.derived_coeffs(DS_MODEL, sol.classical_policy)
        times = np.array([0.0, 0.5, 1.0])
        for values in (xlq.mean_curve(coeffs, 1.0, times),
                       xlq.second_moment_curve(coeffs, 1.0, times),
                       xlq.second_moment_curve(classical, 1.0, times)):
            assert values.shape == (3,) and values[0] == 1.0
        assert xlq.classify_case(coeffs)[0] == "e"


class TestMomentInputs:
    """x0 must be a finite real number and every t a finite real number
    >= 0; anything else raises a ValueError naming the input, through
    the curves and through the truncation bound built on them.  An x0
    that is not a real number is in test_sde's REAL_INPUTS."""

    CURVES = (xlq.mean_curve, xlq.second_moment_curve)

    @pytest.mark.parametrize("x0", [math.nan, math.inf, -math.inf, "1"])
    def test_bad_x0(self, x0):
        for curve in self.CURVES:
            with pytest.raises(ValueError, match="^x0 must be finite, and a real number"):
                curve(CASE_COEFFS["e"], x0, 1.0)
        policy = xlq.solve(DS_MODEL).policy
        with pytest.raises(ValueError, match="^x0 "):
            xlq.policy_eval.truncation_bound(DS_MODEL, policy, x0, 10.0)

    @pytest.mark.parametrize("t, shown", [
        (math.nan, "nan"), (math.inf, "inf"), (-0.5, "-0.5"),
        ([0.0, 1.0, -math.inf], "-inf"), (np.array([[0.5], [math.nan]]), "nan")])
    def test_t_not_finite_or_negative(self, t, shown):
        for curve in self.CURVES:
            with pytest.raises(ValueError, match=f"^t must be finite and >= 0, got {shown}$"):
                curve(CASE_COEFFS["e"], 1.0, t)

    @pytest.mark.parametrize("t", ["1", [True, False], None, [0.5, "1"]])
    def test_t_not_real_numbers(self, t):
        for curve in self.CURVES:
            with pytest.raises(ValueError, match="^t must be real numbers"):
                curve(CASE_COEFFS["e"], 1.0, t)

    def test_truncation_bound_horizon(self):
        policy = xlq.solve(DS_MODEL).policy
        with pytest.raises(ValueError, match="^t must be finite and >= 0, got inf$"):
            xlq.policy_eval.truncation_bound(DS_MODEL, policy, 1.0, math.inf)

    @pytest.mark.parametrize("x0, t", [(np.float64(1.0), 2), (np.int64(-3), np.arange(3)),
                                       (1, [0, 0.5]), (1.0, -0.0)])
    def test_real_numbers_of_any_type_accepted(self, x0, t):
        for curve in self.CURVES:
            expected = curve(CASE_COEFFS["e"], float(x0), np.asarray(t, dtype=float))
            assert np.array_equal(curve(CASE_COEFFS["e"], x0, t), expected)
