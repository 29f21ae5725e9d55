"""policy_eval: running integrand, Monte Carlo value, exploration cost."""

import math
from dataclasses import replace

import pytest
from scipy import integrate

import exploratory_lq as xlq
from conftest import BENCH_SI, DS_MODEL, S1


def running_integrand(model, policy, x):
    """g2 x^2 + g1 x + g0 from the policy's integrand coefficients."""
    g2, g1, g0 = xlq.integrand_coefficients(model, policy)
    return g2 * x * x + g1 * x + g0


class TestRunningIntegrand:
    def test_state_independent_hand_value(self):
        # mu = -0.5, s^2 = 0.5, N = 2, Q = 1:
        # -(N/2)(mu^2 + s^2) - Q mu + lam/2 ln(2 pi e s^2)
        # = -0.25 + lam * 1.0723649...
        model = xlq.LqModel(a=0, b=1, c=0, d=0, m=0, n=2, r=0, p=0, q=1,
                            rho=0.5, lam=1.0)
        policy = xlq.AffineGaussianPolicy(0.0, -0.5, 0.5)
        got = running_integrand(model, policy, 3.3)
        ent_half = 0.5 * math.log(2 * math.pi * math.e * 0.5)
        assert ent_half == pytest.approx(1.0723649429247, abs=1e-12)
        assert got == pytest.approx(-0.25 + model.lam * ent_half, abs=1e-12)

    def test_entropy_zero_point(self):
        s2 = 1.0 / (2 * math.pi * math.e)
        policy = xlq.AffineGaussianPolicy(0.0, 0.0, s2)
        assert policy.entropy() == pytest.approx(0.0, abs=1e-14)

    def test_classical_route_at_zero_variance(self):
        model = xlq.LqModel(a=0, b=1, c=0, d=0, m=0, n=2, r=0, p=0, q=1,
                            rho=0.5, lam=1.0)
        policy = xlq.AffineGaussianPolicy(0.0, -0.5, 0.0)
        # r(0, -0.5) = -(N/2 u^2 + Q u) = -(0.25 - 0.5) = 0.25
        assert running_integrand(model, policy, 0.0) == pytest.approx(
            0.25, abs=1e-14)

    def test_matches_quadrature(self):
        """Analytic action integration vs numerical quadrature of
        r(x, u) pi(u) - lam pi ln pi."""
        model = DS_MODEL
        policy = xlq.solve(model).policy
        for x in (-1.0, 0.4, 2.0):
            def f(u):
                pdf = policy.density(x, u)
                val = model.reward(x, u) * pdf
                if pdf > 0:
                    val -= model.lam * pdf * math.log(pdf)
                return val
            lo = policy.mean(x) - 12 * policy.std
            hi = policy.mean(x) + 12 * policy.std
            num, _ = integrate.quad(f, lo, hi)
            assert running_integrand(model, policy, x) == pytest.approx(
                num, rel=1e-9)

    def test_entropy_enters_only_the_constant(self):
        """A randomized policy's coefficients are the zero-variance
        policy's, with g0 shifted by -n s^2/2 + lam H(pi)."""
        sol = xlq.solve(DS_MODEL)
        g2, g1, g0 = xlq.integrand_coefficients(DS_MODEL, sol.policy)
        h2, h1, h0 = xlq.integrand_coefficients(DS_MODEL, sol.classical_policy)
        assert (g2, g1) == (h2, h1)
        s2 = sol.policy.variance
        assert g0 - h0 == pytest.approx(
            -DS_MODEL.n / 2.0 * s2 + DS_MODEL.lam * sol.policy.entropy(), abs=1e-14)


class TestMcValue:
    def test_s1_reference(self):
        sol = xlq.solve(S1)
        value, policy = sol.value, sol.policy
        grid = xlq.PathGrid(dt=5e-4, n_steps=6000)
        est = xlq.mc_value(S1, policy, 1.0, grid, seed=7, n_paths=64)
        target = value(1.0)
        assert target == pytest.approx(-0.2861730789774229, abs=1e-13)
        assert abs(est.value - target) <= 3 * est.std_error + est.truncation_bound

    def test_state_independent_benchmark(self):
        sol = xlq.solve(BENCH_SI)
        value, policy = sol.value, sol.policy
        grid = xlq.PathGrid(dt=1e-3, n_steps=10000)
        est = xlq.mc_value(BENCH_SI, policy, 1.0, grid, seed=11, n_paths=64)
        target = value(1.0)
        assert target == pytest.approx(1.6447298858494002, abs=1e-13)
        assert abs(est.value - target) <= 3 * est.std_error + est.truncation_bound

    def test_pure_entropy_annuity(self):
        # m = r = p = q = 0, n = 1: value = (lam/2rho)(ln(2 pi e lam) - 1).
        model = xlq.LqModel(a=0, b=1, c=0, d=0, m=0, n=1, r=0, p=0, q=0,
                            rho=1.0, lam=0.4)
        sol = xlq.solve(model)
        value, policy = sol.value, sol.policy
        target = (model.lam / (2 * model.rho)) * (
            math.log(2 * math.pi * math.e * model.lam) - 1.0)
        assert value(0.0) == pytest.approx(target, abs=1e-14)
        grid = xlq.PathGrid(dt=1e-3, n_steps=8000)
        est = xlq.mc_value(model, policy, 0.0, grid, seed=3, n_paths=16)
        assert abs(est.value - target) <= 3 * est.std_error + est.truncation_bound

    def test_classical_route_reproduces_classical_value(self):
        sol = xlq.solve(DS_MODEL)
        wvalue, feedback = sol.classical_value, sol.classical_policy
        grid = xlq.PathGrid(dt=1e-3, n_steps=4000)
        est = xlq.mc_value(DS_MODEL, feedback, 1.0, grid, seed=5, n_paths=4000)
        target = wvalue(1.0)
        assert abs(est.value - target) <= 3 * est.std_error + \
            est.truncation_bound + 2e-3

    def test_sampled_actions_agree_with_analytic(self):
        policy = xlq.solve(DS_MODEL).policy
        grid = xlq.PathGrid(dt=2e-3, n_steps=1500)
        analytic = xlq.mc_value(DS_MODEL, policy, 1.0, grid, seed=9,
                                n_paths=4000)
        sampled = xlq.mc_value(DS_MODEL, policy, 1.0, grid, seed=9,
                               n_paths=4000, sample_actions=True)
        spread = 3 * math.sqrt(analytic.std_error ** 2 + sampled.std_error ** 2)
        assert abs(analytic.value - sampled.value) <= spread + 1e-4
        # Action integration is a Rao-Blackwellization, so the sampled SE
        # cannot sit below the analytic one beyond estimation noise.
        assert sampled.std_error >= 0.95 * analytic.std_error

    def test_sampled_actions_require_randomized_policy(self):
        policy = xlq.AffineGaussianPolicy(0.0, 0.0, 0.0)
        grid = xlq.PathGrid(dt=0.01, n_steps=10)
        with pytest.raises(ValueError):
            xlq.mc_value(S1, policy, 1.0, grid, seed=1, n_paths=4,
                         sample_actions=True)

    def test_clt_scaling(self):
        policy = xlq.solve(DS_MODEL).policy
        grid = xlq.PathGrid(dt=2e-3, n_steps=1000)
        small = xlq.mc_value(DS_MODEL, policy, 1.0, grid, seed=13, n_paths=2000)
        big = xlq.mc_value(DS_MODEL, policy, 1.0, grid, seed=13, n_paths=8000)
        ratio = small.std_error / big.std_error
        assert abs(ratio - 2.0) < 0.4  # quadrupling halves SE within 20%

    def test_discretization_bias_below_noise(self):
        policy = xlq.solve(DS_MODEL).policy
        coarse = xlq.mc_value(DS_MODEL, policy, 1.0,
                              xlq.PathGrid(dt=2e-3, n_steps=1500),
                              seed=17, n_paths=3000)
        fine = xlq.mc_value(DS_MODEL, policy, 1.0,
                            xlq.PathGrid(dt=1e-3, n_steps=3000),
                            seed=17, n_paths=3000)
        assert abs(coarse.value - fine.value) <= 2 * coarse.std_error + 5e-4

    def test_discretization_bias_s1(self):
        """Halving dt moves the S1 estimate by less than 2 se.  The
        reference model has no diffusion, so the statistical error bar
        only exists in sampled-action mode."""
        policy = xlq.solve(S1).policy
        coarse = xlq.mc_value(S1, policy, 1.0,
                              xlq.PathGrid(dt=1e-3, n_steps=3000),
                              seed=99, n_paths=512, sample_actions=True)
        fine = xlq.mc_value(S1, policy, 1.0,
                            xlq.PathGrid(dt=5e-4, n_steps=6000),
                            seed=99, n_paths=512, sample_actions=True)
        assert abs(coarse.value - fine.value) <= 2 * coarse.std_error

    def test_divergence_propagates(self):
        model = xlq.LqModel(a=40.0, b=0, c=0, d=0, m=1, n=1, r=0, p=0, q=0,
                            rho=81.0, lam=0.1)  # valid (bound 80) but explosive
        policy = xlq.solve(model).policy
        grid = xlq.PathGrid(dt=0.5, n_steps=200)
        with pytest.raises(xlq.SimulationDivergedError):
            xlq.mc_value(model, policy, 1.0, grid, seed=1, n_paths=4)

    @pytest.mark.parametrize("model, policy, grid, n_paths", [
        # Bound 2.25: the walk would take 4096 x 2000 Euler steps.
        (replace(DS_MODEL, a=1.0, rho=1.0), xlq.solve(DS_MODEL).policy,
         xlq.PathGrid(dt=1e-3, n_steps=2000), 4096),
        # Bound 20, and every path of the walk would diverge: the error
        # names the model, not the walk.
        (replace(DS_MODEL, a=8.0, c=2.0, rho=1.0), xlq.AffineGaussianPolicy(0.0, 0.0, 0.1),
         xlq.PathGrid(dt=1e-2, n_steps=1000), 100)], ids=["slow", "explosive"])
    def test_invalid_model_rejected_before_noise(self, no_noise, model, policy,
                                                 grid, n_paths):
        with pytest.raises(xlq.ModelValidationError, match="rho>assumption_bound"):
            xlq.mc_value(model, policy, 1.0, grid, seed=1, n_paths=n_paths)

    def test_estimate_report_keys(self):
        policy = xlq.solve(S1).policy
        grid = xlq.PathGrid(dt=0.01, n_steps=100)
        est = xlq.mc_value(S1, policy, 1.0, grid, seed=1, n_paths=8)
        assert set(est.as_dict()) == {"value", "std_error", "truncation_bound",
                                      "n_paths", "dt", "T", "seed"}


class TestMcExplorationCost:
    def test_s1_cost(self):
        grid = xlq.PathGrid(dt=1e-3, n_steps=5000)
        est = xlq.mc_exploration_cost(S1, 1.0, grid, seed=23, n_paths=2000)
        assert abs(est.value - 0.1) <= 3 * est.std_error + est.truncation_bound

    def test_cost_universality_across_models(self):
        # Different dynamics, same (lam, rho): both estimates near lam/2rho.
        model = replace(DS_MODEL, lam=1.0, rho=0.5)
        target = 1.0
        grid = xlq.PathGrid(dt=1e-3, n_steps=12000)
        est = xlq.mc_exploration_cost(model, 1.0, grid, seed=29, n_paths=2000)
        assert abs(est.value - target) <= 3 * est.std_error + est.truncation_bound

    def test_closed_form_route_is_exact(self):
        for x in (-3.0, 0.0, 7.0):
            assert xlq.solve(S1).cost_decomposition(x) == pytest.approx(
                xlq.exploration_cost(S1), abs=1e-12)


class TestSuboptimality:
    def test_jittered_policies_never_beat_value(self, rng):
        sol = xlq.solve(DS_MODEL)
        value, policy = sol.value, sol.policy
        grid = xlq.PathGrid(dt=2e-3, n_steps=1500)
        target = value(1.0)
        for _ in range(10):
            jitter = xlq.AffineGaussianPolicy(
                policy.slope * rng.uniform(0.8, 1.2),
                policy.intercept + 0.1 * rng.uniform(-1, 1),
                policy.variance * rng.uniform(0.8, 1.2))
            est = xlq.mc_value(DS_MODEL, jitter, 1.0, grid, seed=31,
                               n_paths=1500)
            assert est.value <= target + 3 * est.std_error + est.truncation_bound
