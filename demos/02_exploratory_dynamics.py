"""Simulating the exploratory state dynamics.

The policy-averaged state follows
    dX = (a1 X + a2) dt + sqrt((b1 X + b2)^2 + c1) dW,
where c1 = d^2 * variance is the extra noise injected by exploration.
Shows the Euler-Maruyama batch API, the bitwise coincidence of a
zero-variance exploratory run with the classical simulation, and the
determinism of the counter-based per-path random streams.
"""

import numpy as np

import exploratory_lq as xlq

model = xlq.LqModel(a=0, b=1, c=0.5, d=1, m=1, n=2, r=0, p=0, q=0,
                    rho=3, lam=0.2)
value, policy = xlq.exploratory_solution(model)
grid = xlq.PathGrid(dt=1e-3, n_steps=2000)

batch = xlq.simulate_exploratory(model, policy, 1.0, grid, seed=2024,
                                 n_paths=2000)
print("summary:", batch.summary())

coeffs = xlq.derived_coeffs(model, policy)
print("moment oracle mean at T:", float(xlq.mean_curve(coeffs, 1.0,
                                                       grid.horizon)))
print("sample mean at T:       ", batch.endpoint_mean())

# Zero exploration variance reproduces the classical SDE bit for bit.
dirac = xlq.AffineGaussianPolicy(policy.slope, policy.intercept, 0.0)
a = xlq.simulate_exploratory(model, dirac, 1.0, grid, seed=7, n_paths=64)
b = xlq.simulate_classical(model, policy.slope, policy.intercept, 1.0,
                           grid, seed=7, n_paths=64)
print("zero-variance run equals classical bitwise:",
      np.array_equal(a.states, b.states))

# Per-path streams: results do not depend on the batch size.
big = xlq.simulate_exploratory(model, policy, 1.0, grid, seed=7, n_paths=256)
small = xlq.simulate_exploratory(model, policy, 1.0, grid, seed=7, n_paths=100)
print("path 42 identical in both batches:",
      np.array_equal(big.states[42], small.states[42]))
