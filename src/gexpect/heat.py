"""Monotone explicit solver for the 1-d fully nonlinear parabolic equation

    dv/dt = G(dv/dx, d2v/dx2),    v(0, .) = phi,

with G the corner maximum of ``gfunction``. The uncertainty set is a
rectangle, so G separates into a drift part and a diffusion part,

    G(p, a) = max_q q * p + 1/2 * max_s2 s2 * a,

with q over {mu_lo, mu_hi} and s2 over {sig2_lo, sig2_hi}. Each time step
applies both parts to the same first differences:

    v_j  <-  v_j + max_q (dt*q/dx) * D_up(q) v_j
                 + max_s2 (dt*s2/(2*dx^2)) * D2 v_j

where D_up(q) is the one-sided difference upwinded on the sign of q
(v_{j+1} - v_j for q >= 0, v_j - v_{j-1} otherwise) and D2 = v_{j+1} -
2*v_j + v_{j-1} is the difference of the two one-sided differences.

Why the split stays monotone: the maximum of a sum over a product set is
the sum of the maxima, so the step equals the pointwise maximum over the
four corners (q, s2) of v_j + dt * [q * D_up(q) v_j / dx + 1/2 * s2 *
D2 v_j / dx^2]. Under the CFL bound dt <= dx^2 / (sig2_hi + dx * |mu|_max)
each corner operator has nonnegative weights on v_{j-1}, v_j, v_{j+1}, so
it is monotone, and a pointwise maximum of monotone operators is monotone.
The scheme is therefore monotone, stable and consistent, and converges to
the unique viscosity solution (Barles & Souganidis, 1991). The solution
value v(t, 0) equals the upper expectation of phi at the G-normal pair
evolved to time t, which is the limit value the convergence harness
compares against.

Batch axis: the march also takes profiles of shape (B, N) with one step
size per row, all rows on the same grid and marched for the same number
of steps. Rows never mix, so each row comes out bitwise equal to a
one-row march at its step size; ``semigroup_check`` marches two of its
three legs together this way.

Boundary handling: every step re-imposes the terminal data at the two
edge nodes. The domain must be wide enough that the boundary influence
at the evaluation point is below tolerance; the harness enforces
half-width >= 6*sigma_hi + |mu|_max at its horizon t = 1.

Time step: a monotone scheme converges as dx refines with dt proportional
to dx^2, so ``dt`` is no accuracy setting of its own: ``stable_dt`` derives
it from dx, within ``CFL_SAFETY`` of the CFL bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError, ValidationError
from .functions import TestFunction
from .gfunction import GParams

_GRID_INT_TOL = 1e-9
CFL_SAFETY = 0.95


@dataclass(frozen=True)
class SolverConfig:
    x_lo: float
    x_hi: float
    dx: float
    dt: float
    t_final: float

    def __post_init__(self) -> None:
        if not self.x_lo < self.x_hi:
            raise ValidationError("need x_lo < x_hi")
        if self.dx <= 0 or self.dt <= 0 or self.t_final <= 0:
            raise ValidationError("dx, dt, t_final must be positive")
        nx = (self.x_hi - self.x_lo) / self.dx
        if abs(nx - round(nx)) > _GRID_INT_TOL or round(nx) < 8:
            raise ValidationError("(x_hi - x_lo)/dx must be an integer >= 8")
        nt = self.t_final / self.dt
        if abs(nt - round(nt)) > _GRID_INT_TOL * max(1.0, nt):
            raise ValidationError("t_final/dt must be an integer")

    @property
    def n_intervals(self) -> int:
        return round((self.x_hi - self.x_lo) / self.dx)

    @property
    def n_steps(self) -> int:
        return round(self.t_final / self.dt)

    def grid(self) -> np.ndarray:
        return np.linspace(self.x_lo, self.x_hi, self.n_intervals + 1)

    def check_cfl(self, gp: GParams) -> None:
        limit = cfl_limit(gp, self.dx)
        if self.dt > limit * (1.0 + 1e-12):
            raise ValidationError(
                f"CFL violated: dt={self.dt!r} > dx^2/(sig2_hi + dx*|mu|) = {limit!r}"
            )


def cfl_limit(gp: GParams, dx: float) -> float:
    """Largest stable explicit time step for the worst uncertainty corner."""
    return dx * dx / (gp.sig2_hi + dx * gp.mu_abs)


def stable_dt(gp: GParams, dx: float, t_total: float) -> float:
    """A CFL-stable dt that divides t_total into an integer number of steps."""
    steps = math.ceil(t_total / (CFL_SAFETY * cfl_limit(gp, dx)))
    return t_total / steps


@dataclass(frozen=True)
class ValueFunction:
    """Grid profile of the running solution at time ``t``."""

    grid_values: np.ndarray
    t: float
    config: SolverConfig

    @property
    def x(self) -> np.ndarray:
        return self.config.grid()


def _march(
    v: np.ndarray,
    gp: GParams,
    dx: float,
    dt: float | np.ndarray,
    n_steps: int,
    edge_values: tuple[float, float],
) -> np.ndarray:
    """Advance profiles ``n_steps`` explicit steps.

    ``v`` is one profile of shape (N,) or a batch of shape (B, N), and
    ``dt`` is one step size or one per row. Returns a new array shaped
    like ``v``.
    """
    dt_rows = np.asarray(dt, dtype=float).reshape(-1, 1)
    limit = cfl_limit(gp, dx)
    if dt_rows.max() > limit * (1.0 + 1e-12):
        raise ValidationError(
            f"effective step {float(dt_rows.max())!r} violates the CFL bound {limit!r}"
        )
    v = np.array(v, dtype=float)
    rows = v.reshape(-1, v.shape[-1])
    inner = rows[:, 1:-1]
    lo, hi = edge_values
    dd = np.empty((rows.shape[0], rows.shape[1] - 1))
    fwd, bwd = dd[:, 1:], dd[:, :-1]
    d2, inc, term, term2 = (np.empty(inner.shape) for _ in range(4))
    finite = np.empty(rows.shape, dtype=bool)
    s2s = sorted({gp.sig2_lo, gp.sig2_hi})
    diffusion = [(dt_rows * (0.5 * s2 / (dx * dx)), d2) for s2 in s2s]
    qs = sorted({gp.mu_lo, gp.mu_hi})
    drift = [] if qs == [0.0] else [(dt_rows * (q / dx), fwd if q >= 0 else bwd) for q in qs]
    for m in range(n_steps):
        np.subtract(rows[:, 1:], rows[:, :-1], out=dd)
        np.subtract(fwd, bwd, out=d2)
        _max_of_products(diffusion, inc, term)
        if drift:
            np.add(inc, _max_of_products(drift, term, term2), out=inc)
        np.add(inner, inc, out=inner)
        rows[:, 0] = lo
        rows[:, -1] = hi
        np.isfinite(rows, out=finite)
        if not finite.all():
            raise NumericsError(
                f"non-finite values at step {m + 1} (t={(m + 1) * dt!r}); aborting"
            )
    return v


def _max_of_products(
    pairs: list[tuple[np.ndarray, np.ndarray]], out: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """Elementwise max over (coefficient, difference) pairs of their product, into ``out``."""
    (c, d), *rest = pairs
    np.multiply(c, d, out=out)
    for c, d in rest:
        np.maximum(out, np.multiply(c, d, out=scratch), out=out)
    return out


def solve(gp: GParams, phi: TestFunction, cfg: SolverConfig) -> ValueFunction:
    """Evolve the initial profile phi to t_final."""
    if phi.dim != 1:
        raise ValidationError("the solver evolves functions of one variable")
    cfg.check_cfl(gp)
    xs = cfg.grid()
    v0 = phi(xs)
    if not np.all(np.isfinite(v0)):
        raise NumericsError("initial data is not finite on the grid")
    edge = (float(v0[0]), float(v0[-1]))
    out = _march(v0, gp, cfg.dx, cfg.dt, cfg.n_steps, edge)
    return ValueFunction(grid_values=out, t=cfg.t_final, config=cfg)


def value_at(vf: ValueFunction, x: float) -> float:
    """Piecewise-linear read of the profile; x must lie inside the grid."""
    if not vf.config.x_lo <= x <= vf.config.x_hi:
        raise ValidationError(f"x={x!r} outside grid [{vf.config.x_lo}, {vf.config.x_hi}]")
    return float(np.interp(x, vf.x, vf.grid_values))


def semigroup_check(gp: GParams, phi: TestFunction, a: float, b: float, cfg: SolverConfig) -> float:
    """Two-stage versus single-stage evolution discrepancy (sup over interior).

    The composition identity for the G-normal pair says evolving phi by the
    (a-scaled, b-scaled) independent copies equals a single evolution to
    time a^2 + b^2. Each route leg here uses the same number of steps
    N = t_final/dt with step size (leg horizon)/N, so the two routes are
    genuinely independent discretizations of the same value: the reported
    discrepancy measures scheme error and contracts under (dx, dt)
    refinement. With b = 0 the routes are the identical computation and the
    discrepancy is exactly zero. Requires a^2 + b^2 <= t_final, which also
    keeps every effective step within the configured CFL bound.
    """
    if a < 0 or b < 0:
        raise ValidationError("need a, b >= 0")
    budget = a * a + b * b
    if budget > cfg.t_final * (1.0 + 1e-12):
        raise ValidationError(f"a^2 + b^2 = {budget!r} exceeds t_final budget {cfg.t_final!r}")
    cfg.check_cfl(gp)
    xs = cfg.grid()
    v0 = phi(xs)
    edge = (float(v0[0]), float(v0[-1]))
    n = cfg.n_steps
    # the first two-stage leg and the single-stage leg start from the same
    # data, so they march as one batch; zero-horizon legs are skipped
    horizons = np.array([a * a, budget])
    stages = np.array([v0, v0])
    live = horizons > 0.0
    if live.any():
        stages[live] = _march(stages[live], gp, cfg.dx, horizons[live] / n, n, edge)
    two, one = stages
    if b * b > 0.0:
        two = _march(two, gp, cfg.dx, b * b / n, n, edge)
    return float(np.max(np.abs(two[1:-1] - one[1:-1])))


def classical_oracle(sigma: float, q: float, t: float, phi: TestFunction, quad_nodes: int) -> float:
    """Gauss-Hermite value of E[phi(sigma*sqrt(t)*Z + q*t)], Z standard normal.

    Independent verification path for point uncertainty intervals.
    """
    if sigma <= 0:
        raise ValidationError("sigma must be positive")
    if quad_nodes < 8:
        raise ValidationError("need at least 8 quadrature nodes")
    with np.errstate(all="ignore"):
        z, w = np.polynomial.hermite.hermgauss(quad_nodes)
    if not np.all(np.isfinite(w)):
        raise NumericsError(f"quadrature weights overflow at {quad_nodes} nodes; use fewer")
    pts = sigma * math.sqrt(t) * math.sqrt(2.0) * z + q * t
    return float(np.dot(w, phi(pts)) / math.sqrt(math.pi))
