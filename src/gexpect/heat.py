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
of steps. It stores them node-major, as one C-contiguous (N, B) array
with the per-row coefficients dt_i * k as full (N-2, B) blocks, so every
operation of a step runs over one contiguous block. Each element is still
the same product or sum of the same two floats, so each row comes out
bitwise equal to a one-row march at its step size; ``semigroup_check``
marches two of its three legs together this way.

Boundary handling: the update writes only the interior nodes, so the two
edge nodes keep the terminal data they start with. The domain must be
wide enough that the boundary influence at the evaluation point is below
tolerance; the harness enforces half-width >= 6*sigma_hi + |mu|_max at
its horizon t = 1.

Finiteness: the march checks once, at the end, that every node is finite.
That is the same as checking after every step: a sum x + y is finite only
if both terms are, so an interior node that is not finite stays so at
every later step, and the edge nodes never change. On a miss the march is
replayed from its input with a check after every step, which raises
``NumericsError`` naming the first step that left a non-finite node.

Alignment: every buffer the march writes (the node values, the
differences, the increments and the per-row coefficient blocks) starts on
a 64-byte boundary. ``np.empty`` gives no such promise, and the speed of
the march depended on where its buffers happened to start: on a 2-CPU
x86-64 machine with AVX-512, numpy 2.4, a g-* preset solve took 4.9 us
per step with aligned buffers and 5.6-5.9 us with buffers 8 to 48 bytes
past a boundary, and the semigroup check 0.14 s against 0.18-0.19 s. So
the speed of a march no longer depends on what was allocated before it.
The values are the same either way.

Work cap: ``SolverConfig`` refuses more than ``GRID_NODE_CAP`` nodes or
``MARCH_UPDATE_CAP`` node updates (time steps x nodes).

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
from .nested import GRID_NODE_CAP

_GRID_INT_TOL = 1e-9
CFL_SAFETY = 0.95
MARCH_UPDATE_CAP = 10**9  # time steps x nodes of one march


@dataclass(frozen=True)
class SolverConfig:
    x_lo: float
    x_hi: float
    dx: float
    dt: float
    t_final: float

    def __post_init__(self) -> None:
        if not self.x_lo < self.x_hi:
            raise ValidationError("x_range needs x_lo < x_hi")
        if not (self.dx > 0 and self.dt > 0 and self.t_final > 0):
            raise ValidationError("dx, dt and t_final must be positive")
        # the caps bound the float ratios, so the round() calls below stay small
        nx = (self.x_hi - self.x_lo) / self.dx
        nodes = nx + 1
        steps = self.t_final / self.dt
        if not (nodes <= GRID_NODE_CAP and nodes * steps <= MARCH_UPDATE_CAP):
            raise ValidationError(
                f"dx = {self.dx!r} asks for a march of {steps:.3g} steps of dt = {self.dt!r} "
                f"on {nodes:.3g} nodes up to t = {self.t_final:g}; the caps are "
                f"{GRID_NODE_CAP} nodes and {MARCH_UPDATE_CAP:.0e} node updates"
            )
        if abs(nx - round(nx)) > _GRID_INT_TOL or round(nx) < 8:
            raise ValidationError("dx must divide x_hi - x_lo into an integer >= 8 intervals")
        if abs(steps - round(steps)) > _GRID_INT_TOL * max(1.0, steps):
            raise ValidationError("dt must divide t_final into an integer number of steps")

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
    """A CFL-stable dt that divides t_total into an integer number of steps.

    Where the bound underflows or the step count overflows, no float step
    is stable; the smallest positive float is returned, and ``SolverConfig``
    refuses its step count.
    """
    bound = CFL_SAFETY * cfl_limit(gp, dx)
    steps = t_total / bound if bound > 0 else math.inf
    return t_total / math.ceil(steps) if steps < math.inf else math.ulp(0.0)


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
    v: np.ndarray, gp: GParams, dx: float, dt: float | np.ndarray, n_steps: int
) -> np.ndarray:
    """Advance profiles ``n_steps`` explicit steps.

    ``v`` is one profile of shape (N,) or a batch of shape (B, N), and
    ``dt`` is one step size or one per row. The two edge nodes keep the
    values they have in ``v``. Returns a new array shaped like ``v``;
    ``v`` itself is not modified.
    """
    v = np.asarray(v, dtype=float)
    out = _advance(v, gp, dx, dt, n_steps, check_each=False)
    if not np.isfinite(out).all():
        # finite at the end iff finite after every step, so replay from v,
        # checking each step, to name the first one that was not
        _advance(v, gp, dx, dt, n_steps, check_each=True)
    return out


def _advance(
    v: np.ndarray, gp: GParams, dx: float, dt: float | np.ndarray, n_steps: int, check_each: bool
) -> np.ndarray:
    """The march of ``_march`` on a node-major copy of ``v``; with
    ``check_each`` it raises ``NumericsError`` at the first step that
    leaves a non-finite node."""
    rows = v.reshape(-1, v.shape[-1])
    batch, n = rows.shape
    nodes = _aligned((n,) if batch == 1 else (n, batch))
    nodes[...] = rows[0] if batch == 1 else rows.T
    upper, lower, inner = nodes[1:], nodes[:-1], nodes[1:-1]
    dd = _aligned(upper.shape)
    fwd, bwd = dd[1:], dd[:-1]
    d2, inc, term, term2 = (_aligned(inner.shape) for _ in range(4))
    dts = np.broadcast_to(np.asarray(dt, dtype=float).reshape(-1), (batch,))

    def per_row(k: float) -> np.ndarray:
        # dt_i * k: a 0-d array (numpy's cheapest scalar operand) for one row,
        # a full (N-2, B) block for a batch
        if batch == 1:
            return np.array(float(dts[0]) * k)
        block = _aligned(inner.shape)
        block[...] = dts * k
        return block

    s2s = sorted({gp.sig2_lo, gp.sig2_hi})
    diffusion = [(per_row(0.5 * s2 / (dx * dx)), d2) for s2 in s2s]
    qs = sorted({gp.mu_lo, gp.mu_hi})
    drift = [] if qs == [0.0] else [(per_row(q / dx), fwd if q >= 0 else bwd) for q in qs]
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite nodes raise NumericsError
        for m in range(n_steps):
            np.subtract(upper, lower, out=dd)
            np.subtract(fwd, bwd, out=d2)
            _max_of_products(diffusion, inc, term)
            if drift:
                np.add(inc, _max_of_products(drift, term, term2), out=inc)
            np.add(inner, inc, out=inner)
            if check_each and not np.isfinite(nodes).all():
                times = ", ".join(repr((m + 1) * float(d)) for d in dts)
                raise NumericsError(f"non-finite values at step {m + 1} (t={times}); aborting")
    return nodes.reshape(v.shape) if batch == 1 else np.ascontiguousarray(nodes.T)


def _aligned(shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialised float array whose data starts on a 64-byte boundary."""
    size = math.prod(shape)
    raw = np.empty(size + 8)
    skip = -raw.ctypes.data % 64 // raw.itemsize
    return raw[skip : skip + size].reshape(shape)


def _max_of_products(
    pairs: list[tuple[np.ndarray, np.ndarray]], out: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """Elementwise max over (coefficient, difference) pairs of their product, into ``out``."""
    (c, d), *rest = pairs
    np.multiply(c, d, out=out)
    for c, d in rest:
        np.maximum(out, np.multiply(c, d, out=scratch), out=out)
    return out


def _initial_data(phi: TestFunction, cfg: SolverConfig) -> np.ndarray:
    """phi on the grid; raises ``NumericsError`` unless every value is finite."""
    v0 = phi(cfg.grid())
    if not np.all(np.isfinite(v0)):
        raise NumericsError("initial data is not finite on the grid")
    return v0


def solve(gp: GParams, phi: TestFunction, cfg: SolverConfig) -> ValueFunction:
    """Evolve the initial profile phi to t_final."""
    if phi.dim != 1:
        raise ValidationError("the solver evolves functions of one variable")
    cfg.check_cfl(gp)
    out = _march(_initial_data(phi, cfg), gp, cfg.dx, cfg.dt, cfg.n_steps)
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
    keeps every effective step within the configured CFL bound, and, as
    ``solve`` does, a ``phi`` that is finite on the grid.
    """
    if a < 0 or b < 0:
        raise ValidationError("need a, b >= 0")
    budget = a * a + b * b
    if budget > cfg.t_final * (1.0 + 1e-12):
        raise ValidationError(f"a^2 + b^2 = {budget!r} exceeds t_final budget {cfg.t_final!r}")
    cfg.check_cfl(gp)
    v0 = _initial_data(phi, cfg)
    n = cfg.n_steps
    # the first two-stage leg and the single-stage leg start from the same
    # data, so they march as one batch; zero-horizon legs are skipped
    horizons = np.array([a * a, budget])
    stages = np.array([v0, v0])
    live = horizons > 0.0
    if live.any():
        stages[live] = _march(stages[live], gp, cfg.dx, horizons[live] / n, n)
    two, one = stages
    if b * b > 0.0:
        two = _march(two, gp, cfg.dx, b * b / n, n)
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
