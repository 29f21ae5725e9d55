"""The price of exploration, and what happens as it vanishes.

The exploration cost -- classical optimum minus the exploratory value
net of the entropy contribution -- equals lam/(2 rho) for every
solvable model, independent of the state and of the dynamics.  As the
temperature drops, the optimal Gaussian collapses onto the classical
feedback: its mean never moves, its variance is exactly linear in lam,
and the value gap vanishes.
"""

import exploratory_lq as xlq

model = xlq.LqModel(a=0, b=1, c=0, d=0, m=1, n=1, r=0, p=0, q=0,
                    rho=1, lam=0.2)

print("closed-form cost lam/(2 rho):", xlq.exploration_cost(model))
sol = xlq.solve(model)
for x in (-3.0, 0.0, 7.0):
    print(f"  decomposition at x = {x:+.0f}:", sol.cost_decomposition(x))

grid = xlq.PathGrid(dt=1e-3, n_steps=8000)
est = xlq.mc_exploration_cost(model, 1.0, grid, seed=23, n_paths=4000)
print("monte carlo cost:", est.value, "+/-", est.std_error)

print("\ntemperature sweep (probe state x0 = 1):")
print(f"{'lambda':>8} {'variance':>12} {'value gap':>14} {'cost':>8} "
      f"{'mean at probe':>14}")
for p in xlq.lambda_sweep(model, [10.0 ** -k for k in range(1, 7)]):
    print(f"{p.lam:>8.0e} {p.variance:>12.4e} {p.value_gap:>14.6e} "
          f"{p.cost:>8.1e} {p.mean_at_probe:>14.10f}")
print("\nthe mean column never moves; variance is lam/(n - k2 d^2); the")
print("gap |V - V_cl| -> 0, so the regularized solution converges to the")
print("classical one.")
