"""The fully nonlinear heat equation behind mean/variance uncertainty.

The solver marches dv/dt = G(dv/dx, d2v/dx2) with a monotone explicit
scheme, G being the worst corner of the uncertainty rectangle. Point
intervals reduce to the classical heat equation (checked against a
Gaussian closed form and Gauss-Hermite quadrature); the two-stage vs
single-stage composition check certifies the distributional identity that
defines the limit pair.
"""

import math

import numpy as np

from gexpect import (
    GParams,
    SolverConfig,
    g_eval,
    semigroup_check,
    solve,
    stable_dt,
    value_at,
)
from gexpect.functions import cosine, ramp

# The corner functional: worst-case drift plus half the worst-case diffusion.
gp = GParams(mu_lo=-0.5, mu_hi=0.5, sig2_lo=1.0, sig2_hi=4.0)
print("G(1, 2)  =", g_eval(gp, 1.0, 2.0), " (drift corner 0.5, diffusion corner 4)")
print("G(-2,-2) =", g_eval(gp, -2.0, -2.0))

# Degenerate intervals: E[cos(Z)] = exp(-1/2) for a standard normal Z.
deg = GParams(0.0, 0.0, 1.0, 1.0)
cfg = SolverConfig(-7.0, 7.0, dx=0.02, dt=stable_dt(deg, 0.02, 1.0), t_final=1.0)
v = value_at(solve(deg, cosine(), cfg), 0.0)
print(f"\ncos under the degenerate solver: {v:.6f}")
print(f"closed form exp(-1/2):           {math.exp(-0.5):.6f}")
z, w = np.polynomial.hermite.hermgauss(32)  # E[f(Z)] = sum w f(sqrt(2) z) / sqrt(pi)
print(f"Gauss-Hermite (32 nodes):        {np.dot(w, np.cos(math.sqrt(2.0) * z)) / math.sqrt(math.pi):.6f}")

# Ambiguous intervals: a convex nondecreasing payoff selects the upper
# corner, giving the drifted-normal call value in closed form.
cfg_a = SolverConfig(-12.5, 12.5, dx=0.02, dt=stable_dt(gp, 0.02, 1.0), t_final=1.0)
v_call = value_at(solve(gp, ramp(), cfg_a), 0.0)
mu, sig = 0.5, 2.0
closed = mu * 0.5 * (1 + math.erf(mu / sig / math.sqrt(2))) + sig * math.exp(
    -((mu / sig) ** 2) / 2
) / math.sqrt(2 * math.pi)
print(f"\nworst-case ramp value:           {v_call:.6f}")
print(f"upper-corner closed form:        {closed:.6f}")

# Composition identity: evolving by two independent scaled copies equals a
# single evolution to the combined horizon. Each route leg uses the same
# step count, so the discrepancy measures scheme error and must shrink
# under refinement.
a = b = math.sqrt(0.5)
d = semigroup_check(gp, cosine(), a, b, cfg_a)
fine = SolverConfig(-12.5, 12.5, 0.01, cfg_a.dt / 4, 1.0)
d_fine = semigroup_check(gp, cosine(), a, b, fine)
print(f"\ncomposition discrepancy at dx=0.02: {d:.2e}")
print(f"after refining (dx/2, dt/4):        {d_fine:.2e}")
print(f"with b = 0 (identical computations): {semigroup_check(gp, cosine(), 1.0, 0.0, cfg_a)}")
