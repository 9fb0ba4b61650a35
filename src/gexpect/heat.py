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
tolerance; at its horizon t = 1 the harness enforces half-width >=
``clt.limit_half_width(gp)``, and a preset's domain is built to it.

Finiteness: the march checks once, at the end, that every node is finite.
That is the same as checking after every step: a sum x + y is finite only
if both terms are, so an interior node that is not finite stays so at
every later step, and the edge nodes never change. On a miss the march is
replayed from its input with a check after every step, which raises
``NumericsError`` naming the first step that left a non-finite node.

Alignment: every buffer the march writes (the node values, the
differences, the increments and the per-row coefficient blocks) starts on
a 64-byte boundary: it comes from ``nested._aligned``, the one allocation
rule of both marches. ``np.empty`` gives no such promise, and the speed of
the march depended on where its buffers happened to start: on a 2-CPU
x86-64 machine with AVX-512, numpy 2.4, a g-* preset solve took 4.9 us
per step with aligned buffers and 5.6-5.9 us with buffers 8 to 48 bytes
past a boundary, and the semigroup check 0.14 s against 0.18-0.19 s. So
the speed of a march no longer depends on what was allocated before it.
The values are the same either way.

Work cap: ``SolverConfig`` refuses more than ``MARCH_UPDATE_CAP`` node
updates (time steps x nodes) or more than ``MARCH_STEP_CAP`` time steps,
naming ``t_final`` and the ``dt`` that ``gp`` and ``dx`` allow, or else more
than ``GRID_NODE_CAP`` nodes, naming ``dx``.

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
from .nested import GRID_NODE_CAP, _aligned

_GRID_INT_TOL = 1e-9
_PHI_NOT_FINITE = "initial data is not finite on the grid"
CFL_SAFETY = 0.95
MARCH_UPDATE_CAP = 10**9  # time steps x nodes of one march
# time steps of one march: a step costs about 3.6 us on a few nodes (21 nodes, 2-CPU
# x86-64, numpy 2.4), so this bounds a march of few nodes to seconds, as the update cap
# bounds a march of many
MARCH_STEP_CAP = 10**6
# seconds per node update: not a measurement (5.1-9 ns traced) but the calibration of the fork
# decisions of run_clt and verify, which a change moves; so a change is benchmarked as such
HEAT_S_PER_NODE_UPDATE = 10e-9


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
        caps = (
            f"the caps are {GRID_NODE_CAP} nodes, {MARCH_UPDATE_CAP:.0e} node updates "
            f"and {MARCH_STEP_CAP:.0e} steps"
        )
        if not (nodes * steps <= MARCH_UPDATE_CAP and steps <= MARCH_STEP_CAP):
            raise ValidationError(
                f"t_final = {self.t_final!r} asks for a march of {steps:.3g} steps of "
                f"dt = {self.dt!r}, at most the CFL step of gp at dx = {self.dx!r}, "
                f"on {nodes:.3g} nodes; {caps}"
            )
        if not nodes <= GRID_NODE_CAP:
            raise ValidationError(f"dx = {self.dx!r} asks for {nodes:.3g} nodes; {caps}")
        if abs(nx - round(nx)) > _GRID_INT_TOL or round(nx) < 8:
            raise ValidationError(
                f"dx must divide [{self.x_lo!r}, {self.x_hi!r}] into an integer number of "
                f"intervals, at least 8; dx = {self.dx!r} gives {nx:.6g}"
            )
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
    refuses its step count. Where the bound overflows, one step spans
    ``t_total``.
    """
    bound = CFL_SAFETY * cfl_limit(gp, dx)
    steps = t_total / bound if bound > 0 else math.inf
    return t_total / max(1, math.ceil(steps)) if steps < math.inf else math.ulp(0.0)


@dataclass(frozen=True)
class ValueFunction:
    """Grid profile of the solution at time ``config.t_final``."""

    grid_values: np.ndarray
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

    # each part's maximum over its interval's two ends, taken only where they differ
    s_lo, s_hi = (per_row(0.5 * s2 / (dx * dx)) for s2 in (gp.sig2_lo, gp.sig2_hi))
    q_lo, q_hi = (per_row(q / dx) for q in (gp.mu_lo, gp.mu_hi))
    d_lo, d_hi = (fwd if q >= 0 else bwd for q in (gp.mu_lo, gp.mu_hi))
    two_s2, two_q = gp.sig2_lo != gp.sig2_hi, gp.mu_lo != gp.mu_hi
    drift = two_q or gp.mu_lo != 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite nodes raise NumericsError
        for m in range(n_steps):
            np.subtract(upper, lower, out=dd)
            np.subtract(fwd, bwd, out=d2)
            np.multiply(s_lo, d2, out=inc)
            if two_s2:
                np.maximum(inc, np.multiply(s_hi, d2, out=term), out=inc)
            if drift:
                np.multiply(q_lo, d_lo, out=term)
                if two_q:
                    np.maximum(term, np.multiply(q_hi, d_hi, out=term2), out=term)
                np.add(inc, term, out=inc)
            np.add(inner, inc, out=inner)
            if check_each and not np.isfinite(nodes).all():
                times = ", ".join(repr((m + 1) * float(d)) for d in dts)
                raise NumericsError(f"non-finite values at step {m + 1} (t={times}); aborting")
    return nodes.reshape(v.shape) if batch == 1 else np.ascontiguousarray(nodes.T)


def solve(gp: GParams, phi: TestFunction, cfg: SolverConfig) -> ValueFunction:
    """Evolve the initial profile phi to t_final."""
    if phi.dim != 1:
        raise ValidationError("the solver evolves functions of one variable")
    cfg.check_cfl(gp)
    out = _march(phi.finite_values(_PHI_NOT_FINITE, cfg.grid()), gp, cfg.dx, cfg.dt, cfg.n_steps)
    return ValueFunction(grid_values=out, config=cfg)


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
    refinement. A leg of zero horizon marches with dt = 0 and leaves its
    profile as it is, so with a = 0 or b = 0 the routes are the identical
    computation and the discrepancy is exactly zero. Requires finite a, b >= 0
    with a^2 + b^2 <= t_final, which also keeps every effective step within the
    configured CFL bound, and, as ``solve`` does, a ``phi`` finite on the grid.
    """
    if not (0 <= a < math.inf and 0 <= b < math.inf):
        raise ValidationError(f"need finite a, b >= 0, got a={a!r}, b={b!r}")
    budget = a * a + b * b
    if budget > cfg.t_final * (1.0 + 1e-12):
        raise ValidationError(f"a^2 + b^2 = {budget!r} exceeds t_final budget {cfg.t_final!r}")
    cfg.check_cfl(gp)
    v0 = phi.finite_values(_PHI_NOT_FINITE, cfg.grid())
    n = cfg.n_steps
    # the first two-stage leg and the single-stage leg start from the same
    # data, so they march as one batch
    two, one = _march(np.array([v0, v0]), gp, cfg.dx, np.array([a * a, budget]) / n, n)
    two = _march(two, gp, cfg.dx, b * b / n, n)
    return float(np.max(np.abs(two[1:-1] - one[1:-1])))
