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
* ``grid_interp`` — the grid is ``state_grid`` and f is the linear
  interpolation weight. The grid clamps: a sum past an edge reads that
  edge's value, as clamped interpolation (``np.interp``) does, so a grid
  narrower than the reach of the partial sums is valid input.

``bruteforce_nested`` is the independent oracle: it enumerates every
adapted assignment of one scenario per history node and returns the
maximum of the induced classical expectations. It reads each step's laws
itself and shares only the input checks and the step weights with
``nested_expect``, so a fault in building the stencils cannot hide in both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError, ValidationError
from .functions import TestFunction
from .scenarios import ScenarioSet, stack_sets

POLICY_CAP = 10**6
GRID_NODE_CAP = 2_000_000
# seconds per nested-grid atom update (one atom of a step applied on one grid node), as
# ``bench/tracing.py`` counts it; traced median on a 2-CPU x86-64, numpy 2.4
GRID_S_PER_ATOM_UPDATE = 3e-9
_LATTICE_REL_TOL = 1e-9
# largest plausible increment-to-spacing dynamic range; the tolerant GCD of
# incommensurable increments runs far below this before hitting the noise floor
_LATTICE_RATIO_CAP = 2**20


@dataclass(frozen=True)
class NestedEvalConfig:
    """State-space handling for the backward recursion; the one owner of the
    ``dp`` section's default mode and ``num_points`` rule.

    ``state_grid`` = (lo, hi, num_points) is used in ``grid_interp`` mode, the
    default, where it must contain 0, the start of the recursion; in
    ``exact_lattice`` mode it is ignored. The grid clamps sums past its edges
    to the edge values. num_points is an int or numpy integer, not a bool or
    ``3201.0``, and neither mode's grid may exceed ``GRID_NODE_CAP`` nodes.
    [lo, hi], named ``x_range`` in messages, needs lo < hi and a finite hi - lo.
    """

    state_grid: tuple[float, float, int] = (-16.0, 16.0, 3201)
    mode: str = "grid_interp"

    def __post_init__(self) -> None:
        lo, hi, num = self.state_grid
        if isinstance(num, bool) or not isinstance(num, (int, np.integer)) or not 2 <= num <= GRID_NODE_CAP:
            raise ValidationError(f"num_points must be an integer in [2, {GRID_NODE_CAP}], got {num!r}")
        if not lo < hi:
            raise ValidationError(f"x_range needs lo < hi, got [{lo}, {hi}]")
        if not math.isfinite(hi - lo):
            raise ValidationError(f"x_range [{lo}, {hi}] must have a finite width")
        if self.mode not in ("exact_lattice", "grid_interp"):
            raise ValidationError(f"mode must be exact_lattice or grid_interp, got {self.mode!r}")
        if self.mode == "grid_interp" and not lo <= 0.0 <= hi:
            raise ValidationError(f"x_range [{lo}, {hi}] must contain 0, the start of the recursion")


def step_counts(value, n_max: int | None, name: str, bound: str = "the model's step count") -> tuple:
    """The one rule for step counts: an n is an int or numpy integer, not a bool, from 1 to
    ``n_max`` (``bound`` names it; None sets no bound). The field ``"n"`` is one n, any other a
    schedule: a nonempty, strictly increasing sequence of n (a list, a ``range``, a 1-d integer
    array). Returns the n as ints, else raises ``ValidationError`` naming field, range and value."""
    try:
        ns = (value,) if name == "n" else tuple(value)
    except TypeError:  # not a sequence
        ns = ()
    counts = all(isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n >= 1 for n in ns)
    if not (ns and counts and list(ns) == sorted(set(ns)) and (n_max is None or ns[-1] <= n_max)):
        what = "an integer" if name == "n" else "a nonempty, strictly increasing sequence of integers"
        span = ">= 1" if n_max is None else f"in [1, {n_max}] ({bound})"
        raise ValidationError(f"{name} must be {what} {span}, got {value!r}")
    return tuple(map(int, ns))


def _first_steps(model, n, phi_of_sum: TestFunction | None = None) -> tuple[ScenarioSet, ...]:
    """The first n steps of a model or step sequence; refused unless ``phi_of_sum``, if given, is a
    function of one variable, n is a step count of the model (``step_counts``) and the steps share
    one dimension (the first step that does not is named, 1-based)."""
    if phi_of_sum is not None and phi_of_sum.dim != 1:
        raise ValidationError("phi_of_sum must be a function of the scalar sum")
    steps = tuple(getattr(model, "steps", model))
    steps = steps[: step_counts(n, len(steps), "n")[0]]
    for i, step in enumerate(steps):
        if step.dim != steps[0].dim:
            raise ValidationError(f"step {i + 1} has dimension {step.dim}, expected {steps[0].dim}")
    return steps


def _step_weights(n: int) -> tuple[float, float]:
    """The weights (sqrt(1/n), 1/n) of the theorem's sum S_n/sqrt(n) + T_n/n."""
    return math.sqrt(1.0 / n), 1.0 / n


def _float_gcd(a: float, b: float, tol: float) -> float:
    while b > tol:
        r = math.fmod(a, b)
        if r < tol or b - r < tol:
            r = 0.0
        a, b = b, r
    return a


def _lattice_spacing(flat: np.ndarray) -> float:
    """Common spacing of all step increments, those within rounding of 0 taken as 0, or raise."""
    tol = _LATTICE_REL_TOL * max(1.0, float(np.abs(flat).max()))
    nonzero = np.abs(flat[np.abs(flat) > tol])
    if nonzero.size == 0:
        return 1.0
    g = float(nonzero[0])
    for v in nonzero[1:]:
        g = _float_gcd(max(g, float(v)), min(g, float(v)), tol)
    if g <= tol or float(nonzero.max()) / g > _LATTICE_RATIO_CAP:
        raise ValidationError(f"reachable partial sums lie on no common lattice above spacing {tol:g}")
    ratios = flat / g
    if np.max(np.abs(ratios - np.round(ratios))) > _LATTICE_REL_TOL * max(1.0, float(np.max(np.abs(ratios)))):
        raise ValidationError("reachable partial sums do not lie on a common lattice")
    return g


def _stencils(inc, w, starts, firsts: list[int], h: float, exact: bool, num: int):
    """Per step (from scenario ``firsts[i]``) and scenario, its (offset, coefficient) terms on a
    num-node grid of spacing h, and the largest |offset| read: the lower term of each atom, then
    the nonzero upper terms. Offsets are clipped to [-num, num - 1]; past that, all read an edge."""
    u = inc / h
    k = np.round(u) if exact else np.floor(u)
    f = 0.0 if exact else u - k
    k = np.clip(k, -num, num - 1)
    ks, upper = k.astype(np.int64), w * f
    law = np.repeat(np.arange(starts.size), np.diff(starts, append=inc.size))
    key = np.concatenate((2 * law, 2 * law + 1))  # a scenario's lower terms, then its upper ones
    order = np.argsort(key, kind="stable")
    order = order[np.concatenate((np.ones(inc.size, dtype=bool), upper != 0))[order]]
    offsets = np.concatenate((ks, ks + 1))[order].tolist()
    terms = list(zip(offsets, np.concatenate((w * (1.0 - f), upper))[order].tolist()))
    ends = np.cumsum(np.bincount(key[order] // 2, minlength=starts.size)).tolist()
    per_law = [terms[a:b] for a, b in zip([0] + ends, ends)]
    laws = firsts + [starts.size]
    return [per_law[a:b] for a, b in zip(laws, laws[1:])], int(np.abs(k).max()) + 1


def _aligned(shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialised float array whose data starts on a 64-byte boundary: the
    one allocation rule of both marches, this module's and ``heat``'s (see its
    Alignment note). On the deep-nested benchmark's grid schedule (g-* models,
    n = 8 ... 1024; 2-CPU x86-64, AVX-512, numpy 2.4), 20 alternating process
    pairs took a median 0.417 s aligned and 0.424 s with ``np.empty`` (aligned
    faster in 14): within the spread, so no gain is claimed. Values are bitwise equal."""
    size = math.prod(shape)
    raw = np.empty(size + 8)
    skip = -raw.ctypes.data % 64 // raw.itemsize
    return raw[skip : skip + size].reshape(shape)


def _march(values: np.ndarray, stencils, pad: int) -> np.ndarray:
    """Apply the step stencils, last to first, to the values of W_n."""
    num = values.size
    buf = _aligned((num + 2 * pad,))
    best, acc, tmp = (_aligned((num,)) for _ in range(3))
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


def nested_expect(phi_of_sum: TestFunction, model, n: int, cfg: NestedEvalConfig) -> float:
    """Nested worst-case value of phi(sum of wx*X_i + wy*Y_i) over n steps,
    with the step weights (wx, wy) = (sqrt(1/n), 1/n) of S_n/sqrt(n) + T_n/n.
    """
    steps = _first_steps(model, n, phi_of_sum)
    wx, wy = _step_weights(len(steps))
    slot = {}  # each distinct step object's position, in order of first use
    order = [slot.setdefault(id(step), len(slot)) for step in steps]
    points, w, starts, firsts = stack_sets(list({id(step): step for step in steps}.values()))
    inc = wx * points[:, 0] + wy * (points[:, 1] if points.shape[1] == 2 else 0.0)
    exact = cfg.mode == "exact_lattice"
    if exact:
        h = _lattice_spacing(inc)
        at = starts[firsts]  # each distinct step's first atom
        step_lo, step_hi = np.minimum.reduceat(inc, at)[order], np.maximum.reduceat(inc, at)[order]
        low = min(0, int(np.cumsum(np.round(step_lo / h)).min()))
        high = max(0, int(np.cumsum(np.round(step_hi / h)).max()))
        if high - low + 1 > GRID_NODE_CAP:
            raise ValidationError(f"lattice state count {high - low + 1} exceeds cap {GRID_NODE_CAP}")
        xs = np.arange(low, high + 1, dtype=np.int64).astype(float) * h
    else:
        lo, hi, num = cfg.state_grid
        xs = np.linspace(lo, hi, num)
        h = (hi - lo) / (num - 1)
    values = phi_of_sum(xs)
    if not np.isfinite(values).all():  # the march's averages and maxima keep finite data finite
        raise NumericsError("phi_of_sum is not finite on the state grid")
    stencils, pad = _stencils(inc, w, starts, firsts, h, exact, xs.size)
    values = _march(values, [stencils[j] for j in order], pad)
    return float(np.interp(0.0, xs, values))  # at a node in exact mode: that node's value


def count_policies(model, n: int) -> int:
    """Number of adapted scenario policies for an n-step prefix (refused as the evaluators do),
    counted exactly up to ``POLICY_CAP``; any larger count is returned as ``POLICY_CAP + 1``."""
    count = 1
    for step in reversed(_first_steps(model, n)):
        count = min(POLICY_CAP + 1, sum(count ** d.n_atoms for d in step.dists))
    return count


def bruteforce_nested(phi_of_sum: TestFunction, model, n: int) -> float:
    """Exact oracle: max over adapted policies of the classical expectation.

    An adapted policy assigns one scenario to every history node of the
    step tree. This enumerates the classical expectation of every policy
    (no backward max/expectation interchange) and takes the maximum at the
    end, so it is an independent check of ``nested_expect``. The step
    weights are those of ``nested_expect``, and more than ``POLICY_CAP``
    policies are refused.
    """
    steps = _first_steps(model, n, phi_of_sum)
    if count_policies(steps, n) > POLICY_CAP:
        raise ValidationError(f"the first {n} steps admit more than {POLICY_CAP} adapted policies")
    wx, wy = _step_weights(n)
    laws = [
        [(wx * d.points[:, 0] + wy * (d.points[:, 1] if d.dim == 2 else 0.0), d.weights)
         for d in step.dists]
        for step in steps
    ]

    def policy_values(s: float, i: int) -> np.ndarray:
        if i == n:
            return phi_of_sum(np.array([s]))
        parts = []
        for inc, wts in laws[i]:
            acc = np.zeros(1)
            for c, w in zip(inc, wts):
                child = policy_values(s + float(c), i + 1)
                acc = (acc[:, None] + w * child[None, :]).ravel()
            parts.append(acc)
        return np.concatenate(parts)

    return float(policy_values(0.0, 0).max())
