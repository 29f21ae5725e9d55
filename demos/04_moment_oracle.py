"""Closed-form state moments as an independent simulation oracle.

The first and second moments of the effective affine diffusion solve
linear ODEs with five closed-form branches.  The demo prints the curves
next to a fixed-step RK4 integration of the same ODEs and a Monte Carlo
estimate, then checks the admissibility decay exponent that keeps the
discounted objective finite.
"""

import numpy as np

import exploratory_lq as xlq

model = xlq.LqModel(a=0, b=1, c=0.5, d=1, m=1, n=2, r=0, p=0, q=0,
                    rho=3, lam=0.2)
sol = xlq.solve(model)
value, policy = sol.value, sol.policy
coeffs = xlq.derived_coeffs(model, policy)
tag, _ = xlq.classify_case(coeffs)
print("derived coefficients:", coeffs)
print("closed-form branch:", tag)

grid = xlq.PathGrid(dt=5e-4, n_steps=4000)
nodes = (1000, 2000, 4000)
batch = xlq.simulate_exploratory(model, policy, 1.0, grid, seed=5,
                                 n_paths=8000, record_paths=False,
                                 checkpoints=nodes)

print(f"\n{'t':>5} {'n(t)':>10} {'rk4':>10} {'mc':>10}   "
      f"{'m(t)':>10} {'rk4':>10} {'mc':>10}")
for node in nodes:
    t = node * grid.dt
    n_cf = float(xlq.mean_curve(coeffs, 1.0, t))
    m_cf = float(xlq.second_moment_curve(coeffs, 1.0, t))
    n_rk, m_rk = xlq.integrate_moment_ode(
        coeffs.a1, coeffs.a2, coeffs.b1, coeffs.b2, coeffs.c1, 1.0, t)
    mc_mean, mc_m2, _, _ = batch.checkpoint_stats(node)
    print(f"{t:>5.2f} {n_cf:>10.6f} {float(n_rk):>10.6f} {mc_mean:>10.6f}   "
          f"{m_cf:>10.6f} {float(m_rk):>10.6f} {mc_m2:>10.6f}")

# Exploration only adds variance: m(t) >= m_hat(t), equal iff c1 = 0.
# m_hat is the same curve under the zero-variance classical policy.
ts = np.array([0.5, 1.0, 2.0])
m = xlq.second_moment_curve(coeffs, 1.0, ts)
mh = xlq.second_moment_curve(
    xlq.derived_coeffs(model, sol.classical_policy), 1.0, ts)
print("\nexploratory minus classical second moment:", m - mh)

exponent, decays = xlq.admissibility_decay(model, coeffs)
print(f"\ndecay exponent 2A1 + B1^2 - rho = {exponent:.4f} (decays: {decays})")
print("same quantity via the curvature-root expansion:",
      xlq.decay_exponent_from_riccati(model, value.k2))
