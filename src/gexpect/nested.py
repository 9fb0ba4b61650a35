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

Both modes march values on a uniform grid of spacing h, one step of the
model at a time, with the weights of each distinct step object built once.
An atom of weight w and increment (k + f)*h, k integer and 0 <= f < 1, adds
w*(1-f) times the values k nodes on and, if f != 0, w*f times those k+1
nodes on; a maximum over scenarios ends the step. All coefficients are
>= 0, so the operator is monotone, like the exact recursion. The two modes
take the step in two forms:

* ``exact_lattice`` — the grid is the common lattice of the increments (a
  tolerant real GCD) and f = 0, so each atom reads one offset. The step is
  a march of terms: per scenario, one product per atom, summed in atom
  order. W_i is computed only on the cone, the nodes from the sum of the
  first i steps' lowest offsets to the sum of their highest: every partial
  sum the first i steps reach is such a node, and those nodes read only
  nodes of the next cone, so no padding is read and each value is the one
  a march over the whole lattice gives there.
* ``grid_interp`` — the grid is ``state_grid`` and f is the linear
  interpolation weight. Each distinct step is a dense (scenarios x offsets)
  matrix of weights on its distinct node offsets, cut into blocks of at most
  ``LAW_BLOCK`` scenarios; the step copies the values shifted by each offset
  into the rows of one array, weighs them with one matrix product per block,
  and takes the maximum over the products' rows. The grid clamps: it
  is padded with its edge values, so a sum past an edge reads that edge's
  value, as clamped interpolation (``np.interp``) does, and a grid narrower
  than the reach of the partial sums is valid input. A lattice atom reads
  one offset, so there the dense matrix would be mostly zeros, and the term
  march is faster.

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

from .errors import ValidationError
from .functions import TestFunction
from .scenarios import ScenarioSet, stack_sets

POLICY_CAP = 10**6
GRID_NODE_CAP = 2_000_000
# seconds per grid atom update (one atom of a step on one node, as ``bench/tracing.py`` counts it):
# not a measurement (0.9-1.5 ns traced) but the calibration of run_clt's fork decisions, which a
# change moves; so a change is benchmarked as such
GRID_S_PER_ATOM_UPDATE = 3e-9
# a grid step weighs at most LAW_BLOCK scenarios on at most NODE_BLOCK nodes in one matrix product
LAW_BLOCK = 16
NODE_BLOCK = 2**14
_LATTICE_REL_TOL = 1e-9
# checked on the march's input alone: its averages and maxima keep finite data finite
_PHI_NOT_FINITE = "phi_of_sum is not finite on the state grid"
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


def _stencils(inc, w, starts, firsts: list[int], h: float):
    """Per step (from scenario ``firsts[i]``) and scenario, its (offset, weight) terms on the
    lattice of spacing h, one per atom in atom order."""
    terms = list(zip(np.round(inc / h).astype(np.int64).tolist(), w.tolist()))
    atoms = starts.tolist() + [inc.size]
    per_law = [terms[a:b] for a, b in zip(atoms, atoms[1:])]
    laws = firsts + [starts.size]
    return [per_law[a:b] for a, b in zip(laws, laws[1:])]


def _dense_steps(inc, w, starts, firsts: list[int], h: float, num: int):
    """Per step (from scenario ``firsts[i]``), its scenarios in blocks of ``LAW_BLOCK``, each
    block as its sorted distinct node offsets and the (scenarios x offsets) matrix of
    interpolation weights on a num-node grid of spacing h; and the largest |offset| read.
    An atom of weight w and increment (k + f)*h adds w*(1-f) at offset k and, if nonzero,
    w*f at k+1. Increments are clipped to [-num, num - 1] nodes; past that, all read an
    edge. Every block is built at once, from one ``np.unique`` over (block, offset) keys."""
    with np.errstate(over="ignore"):  # an increment of more nodes than a float holds is clipped
        u = np.clip(inc / h, -num, num - 1)
    k = np.floor(u)
    f = u - k
    k = k.astype(np.int64)
    upper = w * f
    up = upper != 0
    atom_law = np.repeat(np.arange(starts.size), np.diff(starts, append=inc.size))
    law = np.concatenate((atom_law, atom_law[up]))
    offset = np.concatenate((k, k[up] + 1))
    weight = np.concatenate((w * (1.0 - f), upper[up]))
    laws = np.diff(firsts, append=starts.size)  # scenarios per step
    blocks = -(-laws // LAW_BLOCK)  # blocks per step
    rank = np.arange(starts.size) - np.repeat(firsts, laws)  # each scenario's place in its step
    law_block = np.repeat(np.cumsum(blocks) - blocks, laws) + rank // LAW_BLOCK
    height, block = np.bincount(law_block), law_block[law]  # scenarios per block; each term's block
    span = 2 * num + 1
    keys, col = np.unique(block * span + (offset + num), return_inverse=True)
    cols = np.searchsorted(keys // span, np.arange(height.size + 1))  # each block's first column
    width = np.diff(cols)
    base = np.concatenate(([0], np.cumsum(height * width)))  # each block's first matrix entry
    entry = base[block] + rank[law] % LAW_BLOCK * width[block] + col - cols[block]
    flat = np.bincount(entry, weights=weight, minlength=base[-1])
    offsets = (keys % span - num).tolist()
    mats = [
        (offsets[cols[i] : cols[i + 1]], flat[base[i] : base[i + 1]].reshape(height[i], width[i]))
        for i in range(height.size)
    ]
    ends = np.cumsum(blocks).tolist()
    return [mats[a:b] for a, b in zip([0] + ends, ends)], int(np.abs(offset).max())


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


def _grid_march(values: np.ndarray, steps, pad: int) -> np.ndarray:
    """Apply the dense steps, last to first, to the values of W_n. Per block of
    scenarios and of at most ``NODE_BLOCK`` nodes, the values shifted by each
    offset are stacked, one matrix product weighs them per scenario, and a
    maximum over scenarios ends the step. The blocks bound the memory of a
    step by the number of its offsets, whatever the numbers of its scenarios
    and of nodes."""
    num = values.size
    src, dst = (_aligned((num + 2 * pad,)) for _ in range(2))
    src[pad : pad + num] = values
    width = min(num, NODE_BLOCK)
    rows = _aligned((max(len(o) for blocks in steps for o, _ in blocks), width))
    prod, top = _aligned((LAW_BLOCK, width)), _aligned((width,))
    for blocks in reversed(steps):
        src[:pad], src[pad + num :] = src[pad], src[pad + num - 1]
        for a in range(pad, pad + num, width):
            size = min(width, pad + num - a)
            best = dst[a : a + size]
            for b, (offsets, weights) in enumerate(blocks):
                shifted, laws = rows[: len(offsets), :size], prod[: weights.shape[0], :size]
                for j, o in enumerate(offsets):
                    shifted[j] = src[a + o : a + o + size]
                np.matmul(weights, shifted, out=laws)
                if b:  # the first block starts the maximum
                    np.maximum(best, np.maximum.reduce(laws, axis=0, out=top[:size]), out=best)
                else:
                    np.maximum.reduce(laws, axis=0, out=best)
        src, dst = dst, src
    return src[pad : pad + num]


def _lattice_march(values: np.ndarray, stencils, lo: list[int], hi: list[int]) -> float:
    """Apply the step stencils, last to first, to the values of W_n on the nodes
    lo[n] ... hi[n], and return W_0 at node 0. W_i is computed only on the nodes
    lo[i] ... hi[i] that the first i steps reach from 0, which read only the
    nodes that the first i + 1 steps reach: no padding is read."""
    width = max(b - a for a, b in zip(lo, hi)) + 1
    cur, best, acc, tmp = (_aligned((width,)) for _ in range(4))
    cur[: values.size] = values
    for i in range(len(stencils), 0, -1):
        size, base = hi[i - 1] - lo[i - 1] + 1, lo[i] - lo[i - 1]
        top, run, part = best[:size], acc[:size], tmp[:size]
        for s, ((o, c), *rest) in enumerate(stencils[i - 1]):
            out = run if s else top  # the first scenario starts the maximum
            np.multiply(cur[o - base : o - base + size], c, out=out)
            for o, c in rest:
                np.multiply(cur[o - base : o - base + size], c, out=part)
                out += part
            if s:
                np.maximum(top, run, out=top)
        cur, best = best, cur
    return float(cur[0])


def nested_expect(phi_of_sum: TestFunction, model, n: int, cfg: NestedEvalConfig) -> float:
    """Nested worst-case value of phi(sum of wx*X_i + wy*Y_i) over n steps,
    with the step weights (wx, wy) = (sqrt(1/n), 1/n) of S_n/sqrt(n) + T_n/n.
    phi_of_sum is read, and must be finite, on the state grid in ``grid_interp``
    mode and on the lattice nodes the n steps reach in ``exact_lattice`` mode.
    """
    steps = _first_steps(model, n, phi_of_sum)
    wx, wy = _step_weights(len(steps))
    slot = {}  # each distinct step object's position, in order of first use
    order = [slot.setdefault(id(step), len(slot)) for step in steps]
    points, w, starts, firsts = stack_sets(list({id(step): step for step in steps}.values()))
    inc = wx * points[:, 0] + wy * (points[:, 1] if points.shape[1] == 2 else 0.0)
    if cfg.mode == "exact_lattice":
        h = _lattice_spacing(inc)
        at = starts[firsts]  # each distinct step's first atom
        step_lo, step_hi = np.minimum.reduceat(inc, at)[order], np.maximum.reduceat(inc, at)[order]
        # the reach of the first i steps, in nodes from 0: the cone the march computes
        lo = [0, *np.cumsum(np.round(step_lo / h)).astype(np.int64).tolist()]
        hi = [0, *np.cumsum(np.round(step_hi / h)).astype(np.int64).tolist()]
        count = max(hi) - min(lo) + 1
        if count > GRID_NODE_CAP:
            raise ValidationError(f"lattice state count {count} exceeds cap {GRID_NODE_CAP}")
        values = phi_of_sum.finite_values(_PHI_NOT_FINITE, np.arange(lo[-1], hi[-1] + 1) * h)
        stencils = _stencils(inc, w, starts, firsts, h)
        return _lattice_march(values, [stencils[j] for j in order], lo, hi)
    x_lo, x_hi, num = cfg.state_grid
    xs = np.linspace(x_lo, x_hi, num)
    dense, pad = _dense_steps(inc, w, starts, firsts, (x_hi - x_lo) / (num - 1), num)
    values = _grid_march(phi_of_sum.finite_values(_PHI_NOT_FINITE, xs), [dense[j] for j in order], pad)
    return float(np.interp(0.0, xs, values))


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
    weights are those of ``nested_expect``. More than ``POLICY_CAP`` policies
    are refused, as is a phi_of_sum not finite on a partial sum they reach.
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
            return phi_of_sum.finite_values("phi_of_sum is not finite on the partial sums", np.array([s]))
        parts = []
        for inc, wts in laws[i]:
            acc = np.zeros(1)
            for c, w in zip(inc, wts):
                child = policy_values(s + float(c), i + 1)
                acc = (acc[:, None] + w * child[None, :]).ravel()
            parts.append(acc)
        return np.concatenate(parts)

    return float(policy_values(0.0, 0).max())
