"""Closed-form solution of an entropy-regularized LQ problem.

Solves a reference model, prints the quadratic value function and the
optimal Gaussian feedback, and verifies on the spot that the
coefficients actually solve the HJB equation and that the Boltzmann
("softmax") feedback density collapses to that Gaussian.
"""

import numpy as np

import exploratory_lq as xlq

model = xlq.LqModel(a=0, b=1, c=0, d=0, m=1, n=1, r=0, p=0, q=0,
                    rho=1, lam=0.2)
print("model:", model)
print("assumption bound:", xlq.assumption_bound(model), "vs rho =", model.rho)

# One solve: value and optimal policy, plus the classical pair.
sol = xlq.solve(model)
value, policy = sol.value, sol.policy
print(f"\nvalue function   v(x) = {value.k2 / 2:+.6f} x^2 {value.k1:+.6f} x "
      f"{value.k0:+.6f}")
print(f"optimal feedback N(u | {policy.slope:+.6f} x {policy.intercept:+.6f}, "
      f"{policy.variance:.6f})")

# The curvature is the golden-ratio root (1 - sqrt(5))/2 for this model.
print("\nk2 vs (1-sqrt(5))/2:", value.k2, (1 - np.sqrt(5)) / 2)

# Residual of the HJB equation over a state grid: zero up to rounding.
xs = np.linspace(-10, 10, 41)
res = xlq.hjb_residual(model, value, xs, "exploratory")
print("max |HJB residual| on [-10, 10]:", np.max(np.abs(res)))

# The classical problem shares (k2, k1); its feedback is the policy
# with variance zero.
wvalue, feedback = sol.classical_value, sol.classical_policy
print("\nclassical value  w(x) = v(x) - entropy annuity; alpha0 =", wvalue.k0)
print("u*(1) =", feedback.mean(1.0), "== policy mean(1) =", policy.mean(1.0))

# Softmax density == Gaussian density, pointwise.
u = np.linspace(-2, 1, 7)
soft = xlq.softmax_density(model, value, 1.0, u)
gauss = policy.density(1.0, u)
print("\nmax |softmax - gaussian| on a u-grid:", np.max(np.abs(soft - gauss)))
