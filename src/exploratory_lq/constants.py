"""Shared numeric tolerances and thresholds.

All bound comparisons in the library route through these constants so
that validation, degeneracy detection and case dispatch agree on what
"zero" means.
"""

# Absolute tolerance for strict-inequality / equality-to-zero checks on
# model constants (validation, policy variance, regime selection).
ABS_TOL = 1e-12

# Tolerance on the defining conditions of the moment-ODE closed-form
# cases (A1 = 0, A1 + B1^2 = 0, ...): anything below is treated as zero.
CASE_TOL = 1e-10

# Defining quantities inside (CASE_TOL, NEAR_BAND] sit too close to a
# branch boundary for the closed forms (which divide by them); such
# inputs are integrated numerically instead.
NEAR_BAND = 1e-6

# A simulated path is flagged as diverged once |X| exceeds this.
DIVERGENCE_THRESHOLD = 1e12

# Fixed-step count of the 4th-order moment-ODE integrator.
RK_STEPS = 2048

# RK4 steps per grid step of the per-path Doss-Saussmann ODE for Y.
ODE_SUBSTEPS = 4

# Largest relative defect of the Doss-Saussmann diffusion ODE
# dF/dz = sqrt((b1 F + b2)^2 + c1) accepted at an evaluated node.
DS_DEFECT_TOL = 1e-8
