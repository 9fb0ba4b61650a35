"""Sequence builders, hypothesis checkers, and the convergence runner.

The theorem under test says: for a sequence of pairs (X_i, Y_i) with
directional independence, exact two-sided zero mean and bounded third
moments for the X_i, Cesaro-vanishing distance of the squares/levels from
a reference pair, and a uniform ellipticity floor, the worst-case value of
phi(S_n/sqrt(n) + T_n/n) converges to the PDE value at (t=1, x=0).

``run_clt`` measures that convergence: the left side via the nested
backward recursion with step weights (sqrt(delta), delta), delta = 1/n,
and the right side via the monotone finite-difference solver.

The perturbed builder and the condition checker work on the flat atom
arrays of the scenario sets (see ``scenarios``): the builder moves the
atoms of all steps at once, and the checker couples each distinct step
once with the model's one reference set, all steps in one pass, with
per-law sums in numpy's reduction order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import ValidationError
from .functions import TestFunction
from .gfunction import GParams
from .heat import HEAT_S_PER_NODE_UPDATE, SolverConfig, solve, value_at
from .nested import GRID_S_PER_ATOM_UPDATE, NestedEvalConfig, nested_expect, step_counts
from .parallel import fork_map
from .scenarios import DiscreteDistribution, ScenarioSet, canonical_laws, law_sums, stack_sets

EPS_MAX = 0.25


@dataclass(frozen=True)
class SequenceModel:
    """Per-step 2-d scenario sets for the pairs (X_i, Y_i), plus the limit bounds.

    ``reference``, when present, is the scenario set of the theorem's one
    reference pair, with which the condition checker couples every step (the
    builders' unperturbed iid step; see ``check_conditions``).
    """

    steps: tuple[ScenarioSet, ...]
    gp: GParams
    reference: ScenarioSet | None = None

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValidationError("a sequence model needs at least one step")

    def __len__(self) -> int:
        return len(self.steps)


@dataclass
class ConditionReport:
    """Computed hypotheses: per-step mean residuals, the third-moment bound,
    Cesaro averages of the coupling proxies, and the ellipticity floor."""

    mean_residuals: list[tuple[float, float]]
    third_moment_bound: float
    cesaro_x: list[float]
    cesaro_y: list[float]
    beta: float
    x_proxies: list[float]
    y_proxies: list[float]


@dataclass
class ConvergenceReport:
    """One row per n: nested-DP value, PDE value, and the exact gap."""

    rows: list[tuple[int, float, float, float]]

    @property
    def final_error(self) -> float:
        return self.rows[-1][3]

    def errors(self) -> list[float]:
        return [r[3] for r in self.rows]

    def lhs(self, n: int) -> float:
        for row in self.rows:
            if row[0] == n:
                return row[1]
        raise ValidationError(f"no row for n={n}")


def positive_integer(value, name: str) -> int:
    """``value`` as an int; raises ``ValidationError`` naming the field unless it is
    an int or numpy integer >= 1, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValidationError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


def limit_half_width(gp: GParams) -> float:
    """w = 6 sigma_hi + |mu|_max: the limit value at (1, 0) reads the line on [-w, w], so a
    PDE domain covering it keeps the boundary's influence below tolerance."""
    return 6.0 * gp.sigma_hi + gp.mu_abs


def _product_step(sigma_grid: np.ndarray, mean_grid: np.ndarray, label: str) -> ScenarioSet:
    """Product family: symmetric two-point X at each sigma, point-mass Y at each mean."""
    dists = []
    for sig in sigma_grid:
        for m in mean_grid:
            dists.append(
                DiscreteDistribution([((sig, m), 0.5), ((-sig, m), 0.5)])
            )
    return ScenarioSet(dists, label=label)


def build_iid_family(
    gp: GParams, sigma_levels: int, mean_levels: int, n_max: int
) -> SequenceModel:
    """Identically distributed baseline: every step carries the same product
    family over an even sigma grid of [sigma_lo, sigma_hi] and an even mean
    grid of [mu_lo, mu_hi]. Zero mean of X is exact by symmetry."""
    for value, name in ((sigma_levels, "sigma_levels"), (mean_levels, "mean_levels"), (n_max, "n_max")):
        positive_integer(value, name)
    sigma_grid = np.linspace(gp.sigma_lo, gp.sigma_hi, sigma_levels)
    mean_grid = np.linspace(gp.mu_lo, gp.mu_hi, mean_levels)
    step = _product_step(sigma_grid, mean_grid, label="iid-step")
    return SequenceModel(steps=tuple([step] * n_max), gp=gp, reference=step)


def build_perturbed_family(base: SequenceModel, eps) -> SequenceModel:
    """Genuinely non-identical steps built from ``base``: step i's X atoms are
    scaled by (1 + eps_i) (symmetric, so zero mean is preserved exactly) and
    its Y atoms are shifted by eps_i. Requires |eps_i| <= 1/4; the caller is
    responsible for eps having a vanishing Cesaro average. The canonical
    family passes alternating-sign eps, which makes both perturbations
    alternate and keeps the partial sums of eps bounded (systematic scale
    inflation would otherwise dominate the desk-scale convergence gap).

    The atoms of all steps are perturbed as one flat array, and
    ``canonical_laws`` checks and orders every law in one pass, as
    ``DiscreteDistribution`` does for one law."""
    eps = np.asarray(eps, dtype=float)
    if eps.shape != (len(base),):
        raise ValidationError(f"eps must have one entry per step ({len(base)})")
    magnitude = np.abs(eps)
    if np.any(magnitude > EPS_MAX):
        i = int(magnitude.argmax())
        raise ValidationError(f"|eps_i| must be <= {EPS_MAX}, got {float(magnitude[i])!r} at i = {i}")
    if any(step.dim != 2 for step in base.steps):
        raise ValidationError("a perturbed family needs 2-d base steps")
    points, weights, starts, firsts = stack_sets(base.steps)
    step_atoms = np.diff(starts[firsts], append=weights.size)
    shift = np.repeat(eps, step_atoms)
    with np.errstate(over="ignore", invalid="ignore"):  # canonical_laws refuses what overflows
        moved = np.column_stack((points[:, 0] * (1.0 + shift), points[:, 1] + shift))
    law = np.repeat(np.arange(starts.size), np.diff(starts, append=weights.size))
    points, weights, starts = canonical_laws(moved, weights, law)
    bounds = starts.tolist() + [weights.size]
    laws = firsts + [starts.size]
    steps = []
    for step, lo, hi in zip(base.steps, laws, laws[1:]):
        a, b = bounds[lo], bounds[hi]
        steps.append(ScenarioSet._flat(points[a:b], weights[a:b], starts[lo:hi] - a, step.label))
    return SequenceModel(steps=tuple(steps), gp=base.gp, reference=base.reference)


def _coupling_mismatch(steps, ref: ScenarioSet) -> str | None:
    """Why the first step that cannot be paired with the reference scenario by
    scenario and atom by atom fails, or None if every step can."""
    if any(s.dim != 2 for s in [*steps, ref]):
        return "the coupling needs 2-d steps and references"
    for step in steps:
        if len(step) != len(ref):
            return f"comonotone coupling needs matching scenario counts ({len(step)} vs {len(ref)})"
        if np.array_equal(step.starts, ref.starts) and np.array_equal(step.weights, ref.weights):
            continue  # every scenario pairs up
        for j, (d, r) in enumerate(zip(step.dists, ref.dists)):
            if d.n_atoms != r.n_atoms or np.max(np.abs(d.weights - r.weights)) > 1e-12:
                return f"scenario {j}: atom structure does not match the reference"
    return None


def check_conditions(model: SequenceModel) -> ConditionReport:
    """Compute the theorem's hypotheses for every step of the model.

    Mean residuals are the upper and lower expectations of X_i (both must
    be exactly zero for the shipped builders). The third-moment bound is
    the max over steps of the worst-case third absolute moments of X_i and
    Y_i. The coupling proxies pair every step with the model's one
    comonotone reference set ``model.reference`` (required): scenario j of
    the step with scenario j of the reference, atom by atom in canonical
    order (which keeps signs aligned). The X proxy is the worst-case mean of
    |X^2 - Xref^2|^2, the Y proxy the worst-case mean of |Y - Yref|^2, and
    the report carries their running Cesaro averages. The ellipticity floor
    is sig2_lo.

    Each distinct step is computed once, and all of them at once on their
    stacked flat atoms.
    """
    if model.reference is None:
        raise ValidationError("check_conditions needs a model with a reference (reference)")
    slot: dict = {}  # each distinct step, in order of first use
    order = [slot.setdefault(id(s), (len(slot), s))[0] for s in model.steps]
    steps = [s for _, s in slot.values()]
    reason = _coupling_mismatch(steps, model.reference)
    if reason is not None:
        raise ValidationError(reason)
    points, weights, starts, firsts = stack_sets(steps)
    ref_points = np.tile(model.reference.points, (len(steps), 1))
    x, y = points[:, 0], points[:, 1]

    def worst(values: np.ndarray) -> np.ndarray:
        return np.maximum.reduceat(law_sums(weights, values, starts), firsts)[order]

    upper, lower = worst(x), -worst(-x)
    third = max(0.0, float(worst(np.abs(x) ** 3.0).max()), float(worst(np.abs(y) ** 3.0).max()))
    x_proxies = worst((x**2 - ref_points[:, 0] ** 2) ** 2).tolist()
    y_proxies = worst((y - ref_points[:, 1]) ** 2).tolist()
    cesaro_x = list(np.cumsum(x_proxies) / np.arange(1, len(x_proxies) + 1))
    cesaro_y = list(np.cumsum(y_proxies) / np.arange(1, len(y_proxies) + 1))
    return ConditionReport(
        mean_residuals=list(zip(upper.tolist(), lower.tolist())),
        third_moment_bound=third,
        cesaro_x=cesaro_x,
        cesaro_y=cesaro_y,
        beta=model.gp.sig2_lo,
        x_proxies=x_proxies,
        y_proxies=y_proxies,
    )


def run_clt(
    model: SequenceModel,
    phi: TestFunction,
    n_schedule,
    cfg_dp: NestedEvalConfig,
    cfg_pde: SolverConfig,
) -> ConvergenceReport:
    """Measure the convergence of the nested value to the PDE value.

    One row per n in the schedule (see ``nested.step_counts``); the PDE reference
    is computed once at (1, 0), so ``cfg_pde.t_final`` must be 1. The PDE
    domain must cover [-w, w], w = ``limit_half_width(model.gp)``, as a preset's
    does by construction (see ``io``).

    The PDE value and the nested value at each n share no state, so they go
    through ``fork_map`` in schedule order, the PDE first, with each one's
    time estimated from its work count: a run whose overlap could save
    little, such as each shipped preset's, stays in this process, and a
    forked one starts the longest first. Each is the call a run in one
    process makes, so the rows are the same, and the error raised is the
    one a run in turn meets first: the PDE's, else the one at the smallest n.
    """
    n_schedule = step_counts(n_schedule, len(model), "n_schedule")
    if cfg_pde.t_final != 1.0:
        raise ValidationError(
            f"the limit is the PDE value at t = 1, but cfg_pde.t_final = {cfg_pde.t_final!r}"
        )
    half = limit_half_width(model.gp)
    if cfg_pde.x_hi < half - 1e-12 or cfg_pde.x_lo > -half + 1e-12:
        raise ValidationError(
            f"PDE domain [{cfg_pde.x_lo}, {cfg_pde.x_hi}] does not cover the "
            f"required half-width {half!r}"
        )

    def value(n: int | None) -> float:
        """The PDE value (n None) or the nested value at n."""
        if n is None:
            return value_at(solve(model.gp, phi, cfg_pde), 0.0)
        return nested_expect(phi, model, n, cfg_dp)

    # the atoms of steps 1..n; the lattice of exact_lattice mode is only sized
    # inside nested_expect, so state_grid's node count stands in for it
    atoms = [0, *accumulate(step.n_atoms for step in model.steps[: n_schedule[-1]])]
    costs = [cfg_pde.n_steps * (cfg_pde.n_intervals + 1) * HEAT_S_PER_NODE_UPDATE] + [
        atoms[n] * int(cfg_dp.state_grid[2]) * GRID_S_PER_ATOM_UPDATE for n in n_schedule
    ]
    pde, *lhs = fork_map(value, [None, *n_schedule], costs)
    return ConvergenceReport(rows=[(n, v, pde, abs(v - pde)) for n, v in zip(n_schedule, lhs)])


def reencode_model(model: SequenceModel, seed: int = 0) -> SequenceModel:
    """Distribution-identical re-encoding: scenario order permuted and one
    atom of each law split into two equal-weight duplicates, kept apart
    (``_flat`` skips the canonical merge), so the laws are unchanged but the
    stencils of the nested recursion are not."""
    rng = np.random.default_rng(seed)
    steps = []
    for step in model.steps:
        dists = step.dists
        new_dists = []
        for j in rng.permutation(len(dists)):
            d = dists[j]
            k = int(rng.integers(d.n_atoms))
            reps = 1 + (np.arange(d.n_atoms) == k)  # atom k twice
            points, weights = np.repeat(d.points, reps, axis=0), np.repeat(d.weights, reps)
            weights[k : k + 2] /= 2.0
            new_dists.append(DiscreteDistribution._flat(points, weights, d.starts))
        steps.append(ScenarioSet(new_dists, label=step.label))
    return SequenceModel(steps=tuple(steps), gp=model.gp, reference=model.reference)

