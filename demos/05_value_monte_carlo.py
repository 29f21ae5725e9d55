"""Monte Carlo verification of the closed-form value function.

mc_value integrates the policy-averaged running reward (actions are
integrated out analytically) along simulated paths with left-endpoint
discount weights, and reports the statistical error and an analytic
bound on the truncated tail separately.  Under the optimal policy the
estimate must match the closed-form value; jittered policies must fall
below it.
"""

import numpy as np

import exploratory_lq as xlq

model = xlq.LqModel(a=0, b=1, c=0.5, d=1, m=1, n=2, r=0, p=0, q=0,
                    rho=3, lam=0.2)
sol = xlq.solve(model)
value, policy = sol.value, sol.policy
grid = xlq.PathGrid(dt=1e-3, n_steps=3000)

est = xlq.mc_value(model, policy, 1.0, grid, seed=17, n_paths=4000)
print("closed-form V(1):", value(1.0))
print("mc estimate:     ", est.value, "+/-", est.std_error,
      " tail <=", est.truncation_bound)
print("|err| within 3 se + tail:",
      abs(est.value - value(1.0)) <= 3 * est.std_error + est.truncation_bound)

# Sampling actions instead of integrating them out estimates the same
# objective with a larger error bar.
sampled = xlq.mc_value(model, policy, 1.0, grid, seed=17, n_paths=4000,
                       sample_actions=True)
print("\nsampled-action estimate:", sampled.value, "+/-", sampled.std_error)

# No perturbed policy may beat the value function.
rng = np.random.default_rng(1)
print("\njittered policies (value function dominates):")
for k in range(5):
    jitter = xlq.AffineGaussianPolicy(
        policy.slope * rng.uniform(0.8, 1.2),
        policy.intercept + 0.05 * rng.uniform(-1, 1),
        policy.variance * rng.uniform(0.8, 1.2))
    sub = xlq.mc_value(model, jitter, 1.0, grid, seed=100 + k, n_paths=2000)
    print(f"  policy {k}: estimate {sub.value:+.6f}  "
          f"gap to V {sub.value - value(1.0):+.6f}")
