"""Empirical central-limit convergence under ambiguity.

The worst-case value of phi(S_n/sqrt(n) + T_n/n) over a non-identically-
distributed sequence converges to the PDE value at (1, 0). This demo runs
a trimmed version of the shipped presets: the ambiguous i.i.d. family, a
genuinely non-identical perturbation of it, and the hypothesis report that
certifies the theorem's conditions.
"""

import numpy as np

from gexpect import (
    GParams,
    SolverConfig,
    build_iid_family,
    build_perturbed_family,
    check_conditions,
    nested_expect,
    run_clt,
    stable_dt,
)
from gexpect.clt import reencode_model
from gexpect.functions import ramp
from gexpect.io import eps_from_rule
from gexpect.nested import NestedEvalConfig

gp = GParams(-0.5, 0.5, 1.0, 4.0)
phi = ramp(clip=6.0)
schedule = [8, 16, 32, 64]

base = build_iid_family(gp, sigma_levels=2, mean_levels=3, n_max=64)
eps = eps_from_rule({"kind": "alternating-harmonic", "offset": 4}, 64)
perturbed = build_perturbed_family(base, eps)

dp = NestedEvalConfig(state_grid=(-12.5, 12.5, 2501), mode="grid_interp")
pde = SolverConfig(-12.5, 12.5, dx=0.05, dt=stable_dt(gp, 0.05, 1.0), t_final=1.0)

print("i.i.d. ambiguous family:")
for n, lhs, pde_v, e_n in run_clt(base, phi, schedule, dp, pde).rows:
    print(f"  n={n:<3d} worst-case value={lhs:.5f}  pde={pde_v:.5f}  gap={e_n:.4f}")

print("\nperturbed family (alternating eps_i, |eps_i| = 1/(i+4)):")
for n, lhs, pde_v, e_n in run_clt(perturbed, phi, schedule, dp, pde).rows:
    print(f"  n={n:<3d} worst-case value={lhs:.5f}  pde={pde_v:.5f}  gap={e_n:.4f}")

report = check_conditions(perturbed)
print("\nhypothesis report for the perturbed family:")
print(f"  worst |mean residual| = {max(max(abs(u), abs(l)) for u, l in report.mean_residuals)}")
print(f"  third moment bound M  = {report.third_moment_bound}")
print(f"  ellipticity floor     = {report.beta}")
print(f"  Cesaro X proxy: first = {report.cesaro_x[0]:.4f}, last = {report.cesaro_x[-1]:.4f}")

# The value does not depend on how the per-step laws are encoded.
value = nested_expect(phi, base, 16, dp)
diff = abs(value - nested_expect(phi, reencode_model(base, seed=2), 16, dp))
print(f"\nre-encoding the scenario sets changes the value by {diff:.2e}")

print("\nFull-size runs: `gexpect clt --config classical-cos|g-ambiguous|g-perturbed`")
