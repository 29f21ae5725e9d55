"""Exact reference paths vs Euler-Maruyama on shared Brownian noise.

Three regimes admit exact constructions of the optimal state process:
  d = 0   lognormal-type formula with a trapezoid time integral,
  c = 0   Ornstein-Uhlenbeck recursion with exact Gaussian transitions,
  both nonzero   Doss-Saussmann transform X = F(W, Y).
Because every path owns a counter-based stream, the exact batch and the
Euler batch see the same increments, so their endpoint gap is a strong
discretization error that must shrink as dt does.
"""

import math

import exploratory_lq as xlq

D0 = xlq.LqModel(a=0.2, b=1, c=0.8, d=0, m=0, n=1, r=0, p=0, q=-0.5,
                 rho=2, lam=0.3)
C0 = xlq.LqModel(a=-1, b=1, c=0, d=1, m=0, n=2, r=0, p=0, q=1,
                 rho=0.5, lam=1.0)
DS = xlq.LqModel(a=0, b=1, c=0.5, d=1, m=1, n=2, r=0, p=0, q=0,
                 rho=3, lam=0.2)


def ladder(model, method):
    if method == "doss_saussman":
        value, policy = xlq.exploratory_solution(model)
    else:
        value = None
        policy = xlq.state_independent_policy(model)
    errs = []
    for dt in (1e-2, 1e-3, 1e-4):
        grid = xlq.PathGrid(dt=dt, n_steps=int(round(1.0 / dt)))
        em = xlq.simulate_exploratory(model, policy, 1.0, grid, seed=99,
                                      n_paths=200, record_paths=False)
        ex = xlq.exact_batch(model, 1.0, grid, 99, 200, method=method,
                             value=value)
        errs.append(xlq.endpoint_errors(em, ex)[0])
    order = math.log10(errs[0] / errs[2]) / 2
    print(f"{method:>14}: rms " + " -> ".join(f"{e:.3e}" for e in errs)
          + f"   empirical order {order:.2f}")


print("strong RMS endpoint error, dt = 1e-2 -> 1e-3 -> 1e-4")
ladder(D0, "d0")
ladder(C0, "c0")
ladder(DS, "doss_saussman")

# The transform F satisfies dF/dz = sqrt((b1 F + b2)^2 + c1), with the
# coefficients of the optimal policy.
value, _ = xlq.exploratory_solution(DS)
tr = xlq.DossSaussmanTransform.from_solution(DS, value)
z, y = 0.8, -1.1
h = 1e-6
fd = (tr.terms(z + h, y)[0] - tr.terms(z - h, y)[0]) / (2 * h)
f, df_dz, _ = tr.terms(z, y)
print("\nF'(z) by finite differences:", fd)
print("dF/dz from the transform:    ", df_dz)
c = tr.coeffs
print("sqrt((b1 F + b2)^2 + c1):    ", math.sqrt((c.b1 * f + c.b2) ** 2 + c.c1))
