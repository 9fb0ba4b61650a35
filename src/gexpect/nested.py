"""Nested worst-case evaluation of step sequences, with an exact oracle.

For a sequence of per-step scenario sets over pairs (X_i, Y_i), the nested
value of a function of the weighted sum S = sum_i (wx*X_i + wy*Y_i) is the
backward recursion

    W_n(s) = phi(s)
    W_i(s) = max over scenarios theta of step i+1 of
             sum_atoms weight * W_{i+1}(s + wx*x + wy*y)

evaluated at W_0(0). The maximization order realizes directional
independence: later steps are resolved innermost, so a realization of the
earlier steps never changes the later steps' uncertainty (and swapping the
step order is a genuinely different computation).

Both modes march one stencil per distinct step object over values on a
uniform grid of spacing h, padded with their edge values. An atom of weight
w and increment (k + f)*h, k integer and 0 <= f < 1, adds w*(1-f) times the
values k nodes on and, if f != 0, w*f times those k+1 nodes on; a running
maximum over scenarios ends the step. All coefficients are >= 0, so the
operator is monotone, like the exact recursion.

* ``exact_lattice`` — the grid is the common lattice of the increments (a
  tolerant real GCD), f = 0, and it spans the running extremes of the
  partial sums: every reachable partial sum is a node, so the value at 0
  never depends on the padding.
* ``grid_interp`` — f is the linear interpolation weight; the padding
  clamps as clamped interpolation does. ``edge="strict"`` rejects grids
  that miss a reachable partial sum; ``edge="clamp"`` truncates.

``bruteforce_nested`` is the independent oracle: it enumerates every
adapted assignment of one scenario per history node and returns the
maximum of the induced classical expectations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .functions import TestFunction
from .scenarios import ScenarioSet

POLICY_CAP_DEFAULT = 10**6
GRID_NODE_CAP = 2_000_000
_LATTICE_REL_TOL = 1e-9
# largest plausible increment-to-spacing dynamic range; the tolerant GCD of
# incommensurable increments runs far below this before hitting the noise floor
_LATTICE_RATIO_CAP = 2**20


@dataclass(frozen=True)
class NestedEvalConfig:
    """State-space handling for the backward recursion.

    ``state_grid`` = (lo, hi, num_points) is used in ``grid_interp`` mode;
    in ``exact_lattice`` mode it is ignored. ``edge`` controls grid
    coverage: "strict" rejects instances whose reachable sums can leave the
    grid, "clamp" truncates them at the edges. Neither mode's grid may
    exceed ``GRID_NODE_CAP`` nodes.
    """

    state_grid: tuple[float, float, int] = (-16.0, 16.0, 3201)
    mode: str = "exact_lattice"
    edge: str = "strict"

    def __post_init__(self) -> None:
        lo, hi, num = self.state_grid
        if not lo < hi:
            raise ValidationError("state grid needs lo < hi")
        if not 2 <= num <= GRID_NODE_CAP or int(num) != num:
            raise ValidationError(f"state grid needs an integer num_points in [2, {GRID_NODE_CAP}]")
        if self.mode not in ("exact_lattice", "grid_interp"):
            raise ValidationError(f"unknown mode {self.mode!r}")
        if self.edge not in ("strict", "clamp"):
            raise ValidationError(f"unknown edge policy {self.edge!r}")


def _steps_of(model) -> tuple[ScenarioSet, ...]:
    steps = getattr(model, "steps", model)
    return tuple(steps)


def _step_weights(n: int, delta: float | None) -> tuple[float, float]:
    d = 1.0 / n if delta is None else float(delta)
    if d <= 0:
        raise ValidationError("delta must be positive")
    return math.sqrt(d), d


def _increments(steps, wx: float, wy: float):
    """Increments and weights of all atoms of the steps, flat; per step, its scenarios' slices."""
    dists = [d for step in steps for d in step.dists]
    x = np.concatenate([d.points[:, 0] for d in dists])
    y = np.concatenate([d.points[:, 1] if d.dim == 2 else np.zeros(d.n_atoms) for d in dists])
    ends = np.cumsum([d.n_atoms for d in dists]).tolist()
    cuts = iter(map(slice, [0] + ends, ends))  # each step takes its scenarios' slices in turn
    scenarios = [[next(cuts) for _ in step.dists] for step in steps]
    return wx * x + wy * y, np.concatenate([d.weights for d in dists]), scenarios


def _float_gcd(a: float, b: float, tol: float) -> float:
    while b > tol:
        r = math.fmod(a, b)
        if r < tol or b - r < tol:
            r = 0.0
        a, b = b, r
    return a


def _lattice_spacing(flat: np.ndarray) -> float:
    """Common spacing of all step increments, or raise if none exists."""
    nonzero = np.abs(flat[np.abs(flat) > 0])
    if nonzero.size == 0:
        return 1.0
    tol = _LATTICE_REL_TOL * max(1.0, float(nonzero.max()))
    g = float(nonzero[0])
    for v in nonzero[1:]:
        g = _float_gcd(max(g, float(v)), min(g, float(v)), tol)
    if g <= tol or float(nonzero.max()) / g > _LATTICE_RATIO_CAP:
        raise ValidationError(f"reachable partial sums lie on no common lattice above spacing {tol:g}")
    ratios = flat / g
    if np.max(np.abs(ratios - np.round(ratios))) > _LATTICE_REL_TOL * max(1.0, float(np.max(np.abs(ratios)))):
        raise ValidationError("reachable partial sums do not lie on a common lattice")
    return g


def _stencils(inc, w, scenarios, h: float, exact: bool, num: int):
    """Per step and scenario, its (offset, coefficient) terms on a num-node grid of spacing h, and
    the largest |offset| read. Offsets are clipped to [-num, num - 1]; past that, all read an edge."""
    u = inc / h
    k = np.round(u) if exact else np.floor(u)
    f = 0.0 if exact else u - k
    k = np.clip(k, -num, num - 1)
    ks, c0, c1 = k.astype(np.int64).tolist(), (w * (1.0 - f)).tolist(), (w * f).tolist()
    stencils = [
        [list(zip(ks[at], c0[at])) + [(o + 1, c) for o, c in zip(ks[at], c1[at]) if c] for at in cuts]
        for cuts in scenarios
    ]
    return stencils, int(np.abs(k).max()) + 1


def _march(values: np.ndarray, stencils, pad: int) -> np.ndarray:
    """Apply the step stencils, last to first, to the values of W_n."""
    num = values.size
    buf = np.empty(num + 2 * pad)
    best, acc, tmp = np.empty(num), np.empty(num), np.empty(num)
    for terms in reversed(stencils):
        buf[:pad], buf[pad + num :] = values[0], values[-1]
        buf[pad : pad + num] = values
        for s, ((o, c), *rest) in enumerate(terms):
            out = acc if s else best  # the first scenario starts the maximum
            np.multiply(buf[pad + o : pad + o + num], c, out=out)
            for o, c in rest:
                np.multiply(buf[pad + o : pad + o + num], c, out=tmp)
                out += tmp
            if s:
                np.maximum(best, acc, out=best)
        values = best
    return values


def nested_expect(
    phi_of_sum: TestFunction,
    model,
    n: int,
    cfg: NestedEvalConfig,
    delta: float | None = None,
) -> float:
    """Nested worst-case value of phi(sum of wx*X_i + wy*Y_i) over n steps.

    By default the step weights are (sqrt(delta), delta) with delta = 1/n;
    pass ``delta`` to override the normalization.
    """
    if phi_of_sum.dim != 1:
        raise ValidationError("phi_of_sum must be a function of the scalar sum")
    steps = _steps_of(model)[:n]
    if n < 1:
        raise ValidationError("n must be >= 1")
    if len(steps) < n:
        raise ValidationError(f"model has {len(steps)} steps, needs at least {n}")
    wx, wy = _step_weights(n, delta)
    slot = {}  # each distinct step object's position, in order of first use
    order = [slot.setdefault(id(step), len(slot)) for step in steps]
    inc, w, scenarios = _increments(list({id(step): step for step in steps}.values()), wx, wy)
    starts = [cuts[0].start for cuts in scenarios]
    step_lo, step_hi = np.minimum.reduceat(inc, starts)[order], np.maximum.reduceat(inc, starts)[order]
    exact = cfg.mode == "exact_lattice"
    if exact:
        h = _lattice_spacing(inc)
        low = min(0, int(np.cumsum(np.round(step_lo / h)).min()))
        high = max(0, int(np.cumsum(np.round(step_hi / h)).max()))
        if high - low + 1 > GRID_NODE_CAP:
            raise ValidationError(f"lattice state count {high - low + 1} exceeds cap {GRID_NODE_CAP}")
        xs = np.arange(low, high + 1, dtype=np.int64).astype(float) * h
    else:
        lo, hi, num = cfg.state_grid
        if not lo <= 0.0 <= hi:
            raise ValidationError("state grid must contain 0 (the recursion starts there)")
        c_lo, c_hi = np.cumsum(step_lo), np.cumsum(step_hi)
        bad = np.flatnonzero((c_lo < lo - 1e-12) | (c_hi > hi + 1e-12))
        if cfg.edge == "strict" and bad.size:
            i = int(bad[0])
            raise ValidationError(
                f"state grid [{lo}, {hi}] does not cover reachable sums "
                f"[{float(c_lo[i])!r}, {float(c_hi[i])!r}] after step {i + 1}; "
                "widen the grid or use edge='clamp'"
            )
        xs = np.linspace(lo, hi, int(num))
        h = (hi - lo) / (num - 1)
    stencils, pad = _stencils(inc, w, scenarios, h, exact, xs.size)
    values = _march(phi_of_sum(xs), [stencils[j] for j in order], pad)
    return float(np.interp(0.0, xs, values))  # at a node in exact mode: that node's value


def count_policies(model, n: int) -> int:
    """Number of adapted scenario policies for an n-step prefix."""
    steps = _steps_of(model)
    if len(steps) < n:
        raise ValidationError(f"model has {len(steps)} steps, needs at least {n}")
    count = 1
    for i in range(n - 1, -1, -1):
        count = sum(count ** d.n_atoms for d in steps[i].dists)
    return count


def bruteforce_nested(
    phi_of_sum: TestFunction,
    model,
    n: int,
    cap: int = POLICY_CAP_DEFAULT,
    delta: float | None = None,
) -> float:
    """Exact oracle: max over adapted policies of the classical expectation.

    An adapted policy assigns one scenario to every history node of the
    step tree. This enumerates the classical expectation of every policy
    (no backward max/expectation interchange) and takes the maximum at the
    end, so it is an independent check of ``nested_expect``.
    """
    if phi_of_sum.dim != 1:
        raise ValidationError("phi_of_sum must be a function of the scalar sum")
    steps = _steps_of(model)
    n_policies = count_policies(model, n)
    if n_policies > cap:
        raise ValidationError(f"policy count {n_policies} exceeds cap {cap}")
    wx, wy = _step_weights(n, delta)
    inc, wts, scenarios = _increments(steps[:n], wx, wy)

    def policy_values(s: float, i: int) -> np.ndarray:
        if i == n:
            return phi_of_sum(np.array([s]))
        parts = []
        for at in scenarios[i]:
            acc = np.zeros(1)
            for c, w in zip(inc[at], wts[at]):
                child = policy_values(s + float(c), i + 1)
                acc = (acc[:, None] + w * child[None, :]).ravel()
            parts.append(acc)
        return np.concatenate(parts)

    return float(policy_values(0.0, 0).max())
