"""Acceptance criteria for the solver-and-verification laboratory.

One test per criterion; each prints a single PASS/FAIL line (run with
``pytest -s tests/test_acceptance.py`` to see them).  Tolerances are
the contract: algebraic identities at 1e-10..1e-12, statistical checks
at 3-4 standard errors plus the analytic truncation bound.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

import exploratory_lq as xlq
from exploratory_lq import exact
from exploratory_lq.closed_form import solve_k0, solve_k1, solve_k2
from exploratory_lq.model import DerivedCoeffs
from conftest import BENCH_SI, C0_MODEL, D0_MODEL, DS_MODEL, S1, random_valid_model

RNG_SEED = 414243


def _report(number: int, title: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {number:02d}] {status} {title}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_01_riccati_and_hjb_residuals():
    """Algebraic system residuals < 1e-10 scale and HJB residuals
    < 1e-9 on a 41-point state grid, for 1000 randomized valid models."""
    rng = np.random.default_rng(RNG_SEED)
    t0 = time.time()
    xs = np.linspace(-10.0, 10.0, 41)
    worst_sys = worst_hjb = 0.0
    for i in range(1000):
        model = random_valid_model(rng, state_dependent=(i % 4 != 0))
        k2 = solve_k2(model)
        k1 = solve_k1(model, k2)
        k0 = solve_k0(model, k2, k1)
        worst_sys = max(
            worst_sys,
            abs(xlq.k2_residual(model, k2)) / max(1.0, abs(k2)),
            abs(xlq.k1_residual(model, k2, k1)) / max(1.0, abs(k1)),
            abs(xlq.k0_residual(model, k2, k1, k0)) / max(1.0, abs(k0)))
        value = xlq.QuadraticValue(k2, k1, k0)
        worst_hjb = max(worst_hjb, float(np.max(np.abs(
            xlq.hjb_residual(model, value, xs, "exploratory")))))
        wval, _ = xlq.classical_solution(model)
        worst_hjb = max(worst_hjb, float(np.max(np.abs(
            xlq.hjb_residual(model, wval, xs, "classical")))))
    elapsed = time.time() - t0
    ok = worst_sys < 1e-10 and worst_hjb < 1e-9 and elapsed < 5.0
    _report(1, "riccati/hjb residuals", ok,
            f"max system residual {worst_sys:.2e}, max hjb residual "
            f"{worst_hjb:.2e}, {elapsed:.1f}s")


def test_02_softmax_equals_gaussian_policy():
    """Boltzmann feedback density == closed-form Gaussian pdf on a
    21x21 (x, u) grid to 1e-10 relative, 100 randomized models."""
    rng = np.random.default_rng(RNG_SEED + 1)
    t0 = time.time()
    worst = 0.0
    for _ in range(100):
        model = random_valid_model(rng)
        value, policy = xlq.exploratory_solution(model)
        xs = np.linspace(-2.0, 2.0, 21)[:, None]
        us = policy.mean(xs) + policy.std * np.linspace(-4.0, 4.0, 21)[None, :]
        soft = xlq.softmax_density(model, value, xs, us)
        direct = policy.density(xs, us)
        worst = max(worst, float(np.max(np.abs(soft - direct) / direct)))
    elapsed = time.time() - t0
    ok = worst < 1e-10 and elapsed < 5.0
    _report(2, "softmax reduction to gaussian", ok,
            f"max relative deviation {worst:.2e}, {elapsed:.1f}s")


def test_03_solvability_equivalence():
    """V - w equals the entropy annuity to 1e-12 at 11 states and the
    policy mean equals the classical feedback, 100 randomized models."""
    rng = np.random.default_rng(RNG_SEED + 2)
    xs = np.linspace(-5.0, 5.0, 11)
    worst = 0.0
    mean_mismatch = 0
    for _ in range(100):
        model = random_valid_model(rng)
        sol = xlq.solve(model)
        gap = xlq.value_gap(model)
        worst = max(worst, float(np.max(np.abs(
            sol.value(xs) - sol.classical_value(xs) - gap))))
        if not np.array_equal(sol.policy.mean(xs), sol.classical_policy.mean(xs)):
            mean_mismatch += 1
    ok = worst < 1e-12 and mean_mismatch == 0
    _report(3, "exploratory/classical equivalence", ok,
            f"max |V - w - gap| {worst:.2e}, mean mismatches {mean_mismatch}")


@pytest.mark.slow
def test_04_exploration_cost():
    """Closed-form decomposition == lam/(2 rho) to 1e-12 across 100
    models sharing (lam, rho); Monte Carlo estimate on S1 (1e4 paths,
    dt = 1e-3, T = 10) within 3 se + truncation bound of 0.1."""
    rng = np.random.default_rng(RNG_SEED + 3)
    lam, rho = 0.8, 1.7
    worst = 0.0
    for _ in range(100):
        model = replace(random_valid_model(rng, rho=6.0), lam=lam, rho=rho)
        if xlq.check_model(model):
            continue  # fixed rho fell below this draw's bound
        worst = max(worst, abs(
            xlq.solve(model).cost_decomposition(rng.uniform(-3, 3))
            - lam / (2 * rho)))
    t0 = time.time()
    est = xlq.mc_exploration_cost(
        S1, 1.0, xlq.PathGrid(dt=1e-3, n_steps=10000), seed=12345,
        n_paths=10000)
    elapsed = time.time() - t0
    err = abs(est.value - 0.1)
    tol = 3 * est.std_error + est.truncation_bound
    ok = worst < 1e-12 and err <= tol and elapsed < 120.0
    _report(4, "exploration cost", ok,
            f"max decomposition defect {worst:.2e}; mc err {err:.2e} vs "
            f"tol {tol:.2e}, {elapsed:.0f}s")


def test_05_value_verification():
    """mc_value under the optimal policy matches closed-form V within
    3 se + truncation bound on S1 and the state-independent benchmark."""
    t0 = time.time()
    value, policy = xlq.exploratory_solution(S1)
    est = xlq.mc_value(S1, policy, 1.0, xlq.PathGrid(dt=5e-4, n_steps=6000),
                       seed=7, n_paths=200)
    err1 = abs(est.value - value(1.0))
    tol1 = 3 * est.std_error + est.truncation_bound

    value2, policy2 = xlq.exploratory_solution(BENCH_SI)
    target2 = value2(1.0)
    est2 = xlq.mc_value(BENCH_SI, policy2, 1.0,
                        xlq.PathGrid(dt=1e-3, n_steps=10000),
                        seed=11, n_paths=200)
    err2 = abs(est2.value - target2)
    tol2 = 3 * est2.std_error + est2.truncation_bound
    elapsed = time.time() - t0
    ok = (err1 <= tol1 and err2 <= tol2
          and abs(target2 - 1.6447298858494002) < 1e-12 and elapsed < 180.0)
    _report(5, "monte carlo value verification", ok,
            f"S1 err {err1:.2e} vs tol {tol1:.2e}; benchmark err {err2:.2e} "
            f"vs tol {tol2:.2e}, {elapsed:.0f}s")


def _forced_case_coeffs(rng, tag: str) -> DerivedCoeffs:
    a2 = rng.uniform(-1.0, 1.0)
    b2 = rng.uniform(-1.0, 1.0)
    c1 = rng.uniform(0.0, 1.0)
    b1 = rng.uniform(0.2, 1.2) * rng.choice([-1.0, 1.0])
    if tag == "a":
        return DerivedCoeffs(0.0, a2, 0.0, b2, c1)
    if tag == "b":
        return DerivedCoeffs(0.0, a2, b1, b2, c1)
    if tag == "c":
        return DerivedCoeffs(-(b1 * b1), a2, b1, b2, c1)
    if tag == "d":
        return DerivedCoeffs(-(b1 * b1) / 2.0, a2, b1, b2, c1)
    a1 = rng.uniform(-1.5, 0.8)
    coeffs = DerivedCoeffs(a1, a2, b1, b2, c1)
    if xlq.classify_case(coeffs)[0] != "e":
        return _forced_case_coeffs(rng, "e")
    return coeffs


@pytest.mark.slow
def test_06_moment_oracle():
    """Closed-form cases (a)-(e) vs RK4 to 1e-8 relative on 500
    randomized coefficient sets; Monte Carlo moments within 4 se at
    t in {0.5, 1, 2} on 3 reference models."""
    rng = np.random.default_rng(RNG_SEED + 4)
    sets = [_forced_case_coeffs(rng, "abcde"[i % 5]) for i in range(500)]
    seen = {xlq.classify_case(c)[0] for c in sets}
    arrays = {f: np.array([getattr(c, f) for c in sets])
              for f in ("a1", "a2", "b1", "b2", "c1")}
    worst = 0.0
    for t in (0.1, 1.0, 5.0):
        for kind in ("exploratory", "classical"):
            noise = arrays["c1"] if kind == "exploratory" else np.zeros(500)
            closed = np.array([xlq.second_moment_curve(
                c if kind == "exploratory" else replace(c, c1=0.0), 1.0, t)
                for c in sets])
            _, m_rk = xlq.integrate_moment_ode(
                arrays["a1"], arrays["a2"], arrays["b1"], arrays["b2"],
                noise, 1.0, t)
            worst = max(worst, float(np.max(
                np.abs(closed - m_rk) / np.maximum(1.0, np.abs(closed)))))
    mc_ok = True
    details = []
    t0 = time.time()
    for model in (DS_MODEL, C0_MODEL, D0_MODEL):
        _, policy = xlq.exploratory_solution(model)
        coeffs = xlq.derived_coeffs(model, policy)
        grid = xlq.PathGrid(dt=5e-4, n_steps=4000)
        nodes = (1000, 2000, 4000)  # t = 0.5, 1, 2
        batch = xlq.simulate_exploratory(model, policy, 1.0, grid, 77, 8000,
                                         record_paths=False, checkpoints=nodes)
        for node in nodes:
            t = node * grid.dt
            mc_mean, mc_m2, se_mean, se_m2 = batch.checkpoint_stats(node)
            dn = abs(mc_mean - float(xlq.mean_curve(coeffs, 1.0, t)))
            dm = abs(mc_m2 - float(xlq.second_moment_curve(coeffs, 1.0, t)))
            mc_ok &= dn <= 4 * se_mean + 1e-3 and dm <= 4 * se_m2 + 2e-3
            details.append(dn)
    elapsed = time.time() - t0
    ok = worst < 1e-8 and seen == set("abcde") and mc_ok
    _report(6, "moment oracle", ok,
            f"max closed-vs-rk4 rel {worst:.2e}, cases {sorted(seen)}, "
            f"mc within 4se: {mc_ok}, mc {elapsed:.0f}s")


def test_07_exact_path_oracles():
    """Euler vs each exact construction on shared increments: RMS
    endpoint error decreasing over dt in {1e-2, 1e-3, 1e-4} with
    empirical order >= 0.4; Doss-Saussmann F satisfies its defining
    ODE to 1e-6 under finite differences."""
    t0 = time.time()
    value_ds = xlq.solve(DS_MODEL).value
    setups = [("d0", D0_MODEL, None), ("c0", C0_MODEL, None),
              ("doss_saussman", DS_MODEL, value_ds)]
    all_ok = True
    details = []
    for method, model, value in setups:
        errs = []
        for dt in (1e-2, 1e-3, 1e-4):
            grid = xlq.PathGrid(dt=dt, n_steps=int(round(1.0 / dt)))
            errs.append(xlq.strong_errors(model, 1.0, grid, 99, 200, method,
                                          value)[0])
        order = math.log10(errs[0] / errs[2]) / 2.0
        mono = errs[0] > errs[1] > errs[2]
        all_ok &= mono and order >= 0.4
        details.append(f"{method}: order {order:.2f}")
    # F-transform defining ODE by central differences.
    c = xlq.derived_coeffs(DS_MODEL, xlq.policy_from_value(DS_MODEL, value_ds))
    rng = np.random.default_rng(RNG_SEED + 5)
    h = 1e-6
    worst_f = 0.0
    for _ in range(100):
        z, y = rng.uniform(-2, 2), rng.uniform(-3, 3)
        fd = (exact.doss_saussman_terms(c, z + h, y)[0]
              - exact.doss_saussman_terms(c, z - h, y)[0]) / (2 * h)
        target = math.sqrt((c.b1 * exact.doss_saussman_terms(c, z, y)[0] + c.b2) ** 2 + c.c1)
        worst_f = max(worst_f, abs(fd - target))
    all_ok &= worst_f < 1e-6
    elapsed = time.time() - t0
    _report(7, "exact-path oracles", all_ok,
            "; ".join(details) + f"; F-ode defect {worst_f:.2e}, {elapsed:.0f}s")


def test_08_vanishing_exploration():
    """Temperature sweep 1e-1 .. 1e-6: |V - V_cl| monotone to zero for
    lam <= 1e-2, variance exactly linear in lam, policy mean constant
    to the last bit."""
    lams = [10.0 ** -k for k in range(1, 7)]
    points = xlq.lambda_sweep(S1, lams, probe_x=1.0)
    gaps = np.abs([p.value_gap for p in points])
    small = [p for p in points if p.lam <= 1e-2]
    gaps_small = np.abs([p.value_gap for p in small])
    mono = bool(np.all(np.diff(gaps_small) < 0)) and gaps[-1] < 1e-5
    k2 = solve_k2(S1)
    n2 = S1.n - k2 * S1.d ** 2
    linear = all(p.variance == p.lam / n2 for p in points)
    means = {p.mean_at_probe for p in points}
    ok = mono and linear and len(means) == 1
    _report(8, "vanishing exploration", ok,
            f"gap ladder {gaps[0]:.1e} -> {gaps[-1]:.1e}, monotone {mono}, "
            f"variance linear {linear}, distinct means {len(means)}")


def test_09_admissibility_decay():
    """Decay exponent 2 A1 + B1^2 - rho < 0 for 1000 validated random
    models; discounted MC second moment at T = 20/rho below 1e-4 x0^2
    on the reference models."""
    rng = np.random.default_rng(RNG_SEED + 6)
    worst = -np.inf
    for i in range(1000):
        model = random_valid_model(rng, state_dependent=(i % 3 != 0))
        value, policy = xlq.exploratory_solution(model)
        coeffs = xlq.derived_coeffs(model, policy)
        exponent, decays = xlq.admissibility_decay(model, coeffs)
        assert decays
        worst = max(worst, exponent)
    mc_ok = True
    t0 = time.time()
    for model in (S1, DS_MODEL, C0_MODEL):
        _, policy = xlq.exploratory_solution(model)
        horizon = 20.0 / model.rho
        n_steps = max(2000, int(round(horizon / 0.01)))
        grid = xlq.PathGrid(dt=horizon / n_steps, n_steps=n_steps)
        batch = xlq.simulate_exploratory(model, policy, 1.0, grid, 55, 2000,
                                         record_paths=False)
        tail = math.exp(-model.rho * horizon) * batch.endpoint_second_moment()
        mc_ok &= tail < 1e-4
    elapsed = time.time() - t0
    ok = worst < 0 and mc_ok
    _report(9, "admissibility decay", ok,
            f"max exponent {worst:.3f}, discounted mc tails < 1e-4: {mc_ok}, "
            f"mc {elapsed:.0f}s")


@pytest.mark.slow
def test_10_suboptimality_sweep():
    """50 policies jittered +-20% from optimal never beat the value
    function beyond 3 se + truncation bound."""
    rng = np.random.default_rng(RNG_SEED + 7)
    value, policy = xlq.exploratory_solution(DS_MODEL)
    target = value(1.0)
    grid = xlq.PathGrid(dt=2e-3, n_steps=1500)
    t0 = time.time()
    beats = 0
    worst_excess = -np.inf
    for i in range(50):
        jitter = xlq.AffineGaussianPolicy(
            policy.slope * rng.uniform(0.8, 1.2),
            policy.intercept + 0.2 * policy.std * rng.uniform(-1, 1),
            policy.variance * rng.uniform(0.8, 1.2))
        est = xlq.mc_value(DS_MODEL, jitter, 1.0, grid, seed=1000 + i,
                           n_paths=1500)
        excess = est.value - target - 3 * est.std_error - est.truncation_bound
        worst_excess = max(worst_excess, excess)
        if excess > 0:
            beats += 1
    elapsed = time.time() - t0
    ok = beats == 0
    _report(10, "suboptimality sweep", ok,
            f"policies beating V: {beats}/50, worst excess {worst_excess:.2e}, "
            f"{elapsed:.0f}s")


def test_11_noisier_environment_explores_less():
    """A more random environment needs less exploration: for 200 random
    models at rho = 50, the optimal variance lam/(n - k2 d^2) never
    increases as the control volatility d runs over 31 points in
    [0, 3], never exceeds its d = 0 value lam/n, and (m > 0, so k2 < 0)
    ends strictly below it."""
    rng = np.random.default_rng(RNG_SEED + 8)
    ds = np.linspace(0.0, 3.0, 31)
    rising = above = flat = 0
    for _ in range(200):
        model = random_valid_model(rng, rho=50.0)
        variance = np.array([xlq.solve(replace(model, d=float(d))).policy.variance
                             for d in ds])
        rising += bool(np.any(np.diff(variance) > 0))
        above += bool(np.any(variance > model.lam / model.n))
        flat += bool(variance[-1] >= variance[0])
    _report(11, "noisier environment explores less",
            rising == 0 and above == 0 and flat == 0,
            f"models whose variance rises along d: {rising}/200, "
            f"exceeds lam/n: {above}/200, not lower at d = 3: {flat}/200")
