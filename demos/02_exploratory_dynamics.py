"""Simulating the exploratory state dynamics.

The policy-averaged state follows
    dX = (a1 X + a2) dt + sqrt((b1 X + b2)^2 + c1) dW,
where c1 = d^2 * variance is the extra noise injected by exploration.
Shows the Euler-Maruyama batch API, the classical optimum simulated as
the same policy with variance zero, and the determinism of the
counter-based per-path random streams.
"""

import numpy as np

import exploratory_lq as xlq

model = xlq.LqModel(a=0, b=1, c=0.5, d=1, m=1, n=2, r=0, p=0, q=0,
                    rho=3, lam=0.2)
sol = xlq.solve(model)
value, policy = sol.value, sol.policy
grid = xlq.PathGrid(dt=1e-3, n_steps=2000)

batch = xlq.simulate_exploratory(model, policy, 1.0, grid, seed=2024,
                                 n_paths=2000)
print("summary:", batch.summary())

coeffs = xlq.derived_coeffs(model, policy)
print("moment oracle mean at T:", float(xlq.mean_curve(coeffs, 1.0,
                                                       grid.horizon)))
print("sample mean at T:       ", batch.endpoint_mean())

# The classical optimum is the same feedback with variance zero: its
# state shares the mean curve and has the classical second moment.
feedback = sol.classical_policy
classical = xlq.simulate_exploratory(model, feedback, 1.0, grid, seed=2024,
                                     n_paths=2000)
print("classical sample mean at T:          ", classical.endpoint_mean())
print("classical second moment oracle at T: ", float(xlq.second_moment_curve(
    xlq.derived_coeffs(model, feedback), 1.0, grid.horizon)))
print("classical sample second moment at T: ",
      classical.endpoint_second_moment())

# Per-path streams: results do not depend on the batch size.
big = xlq.simulate_exploratory(model, policy, 1.0, grid, seed=7, n_paths=256)
small = xlq.simulate_exploratory(model, policy, 1.0, grid, seed=7, n_paths=100)
print("path 42 identical in both batches:",
      np.array_equal(big.states[42], small.states[42]))
