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
atoms of all steps at once, and the checker computes each distinct
(step, reference) pair once, all pairs in one pass, with per-law sums in
numpy's reduction order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .functions import TestFunction
from .gfunction import GParams
from .heat import SolverConfig, solve, value_at
from .nested import NestedEvalConfig, nested_expect
from .scenarios import DiscreteDistribution, ScenarioSet, canonical_laws, law_sums, stack_sets

EPS_MAX = 0.25


@dataclass(frozen=True)
class SequenceModel:
    """Per-step 2-d scenario sets for the pairs (X_i, Y_i), plus the limit bounds.

    ``ref_steps``, when present, is the comonotone coupled reference used by
    the condition checker (the unperturbed per-step sets; see
    ``check_conditions``).
    """

    steps: tuple[ScenarioSet, ...]
    gp: GParams
    family_label: str = ""
    ref_steps: tuple[ScenarioSet, ...] | None = None

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValidationError("a sequence model needs at least one step")
        if self.ref_steps is not None and len(self.ref_steps) != len(self.steps):
            raise ValidationError("reference steps must match the step count")

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
    x_proxies: list[float] = field(default_factory=list)
    y_proxies: list[float] = field(default_factory=list)


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
    if sigma_levels < 1 or mean_levels < 1:
        raise ValidationError("need sigma_levels >= 1 and mean_levels >= 1")
    if n_max < 1:
        raise ValidationError("need n_max >= 1")
    sigma_grid = np.linspace(gp.sigma_lo, gp.sigma_hi, sigma_levels)
    mean_grid = np.linspace(gp.mu_lo, gp.mu_hi, mean_levels)
    step = _product_step(sigma_grid, mean_grid, label="iid-step")
    steps = tuple([step] * n_max)
    return SequenceModel(steps=steps, gp=gp, family_label="iid", ref_steps=steps)


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
    if np.any(np.abs(eps) > EPS_MAX):
        raise ValidationError(f"|eps_i| must be <= {EPS_MAX}")
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
    return SequenceModel(
        steps=tuple(steps),
        gp=base.gp,
        family_label=f"perturbed[{base.family_label}]",
        ref_steps=base.ref_steps if base.ref_steps is not None else base.steps,
    )


def _coupling_mismatch(steps, refs) -> str | None:
    """Why the first (step, reference) pair that cannot be paired scenario by
    scenario and atom by atom fails, or None if every pair can."""
    if any(s.dim != 2 for s in steps + refs):
        return "the coupling needs 2-d steps and references"
    for step, ref in zip(steps, refs):
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
    Y_i. The coupling proxies pair each step with its comonotone reference
    ``model.ref_steps`` (required): scenario j of the step with scenario j
    of the reference, atom by atom in canonical order (which keeps signs
    aligned). The X proxy is the worst-case mean of |X^2 - Xref^2|^2, the
    Y proxy the worst-case mean of |Y - Yref|^2, and the report carries
    their running Cesaro averages. The ellipticity floor is sig2_lo.

    Each distinct (step, reference) pair is computed once, and all of them
    at once on their stacked flat atoms.
    """
    if model.ref_steps is None:
        raise ValidationError("check_conditions needs a model with reference steps (ref_steps)")
    slot: dict = {}  # each distinct (step, reference) pair, in order of first use
    order = [
        slot.setdefault((id(s), id(r)), (len(slot), s, r))[0]
        for s, r in zip(model.steps, model.ref_steps)
    ]
    steps = [s for _, s, _ in slot.values()]
    refs = [r for _, _, r in slot.values()]
    reason = _coupling_mismatch(steps, refs)
    if reason is not None:
        raise ValidationError(reason)
    points, weights, starts, firsts = stack_sets(steps)
    ref_points = ScenarioSet(refs).points
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

    One row per n in the (increasing) schedule; the PDE reference is
    computed once at (1, 0), so ``cfg_pde.t_final`` must be 1. The PDE
    domain must cover the 6-sigma envelope of the limit pair.
    """
    n_schedule = [int(n) for n in n_schedule]
    if not n_schedule or any(b <= a for a, b in zip(n_schedule, n_schedule[1:])):
        raise ValidationError("n_schedule must be nonempty and strictly increasing")
    if n_schedule[-1] > len(model):
        raise ValidationError(
            f"schedule reaches n={n_schedule[-1]} but the model has {len(model)} steps"
        )
    if cfg_pde.t_final != 1.0:
        raise ValidationError(
            f"the limit is the PDE value at t = 1, but cfg_pde.t_final = {cfg_pde.t_final!r}"
        )
    # domain half-width keeping the boundary influence at (1, 0) below tolerance
    half = 6.0 * model.gp.sigma_hi + model.gp.mu_abs
    if cfg_pde.x_hi < half - 1e-12 or cfg_pde.x_lo > -half + 1e-12:
        raise ValidationError(
            f"PDE domain [{cfg_pde.x_lo}, {cfg_pde.x_hi}] does not cover the "
            f"required half-width {half!r}"
        )
    pde = value_at(solve(model.gp, phi, cfg_pde), 0.0)
    rows = []
    for n in n_schedule:
        lhs = nested_expect(phi, model, n, cfg_dp)
        rows.append((n, lhs, pde, abs(lhs - pde)))
    return ConvergenceReport(rows=rows)


def reencode_model(model: SequenceModel, seed: int = 0) -> SequenceModel:
    """Distribution-identical re-encoding: scenario order permuted and one
    atom split into two equal-weight duplicates (merged again by the
    canonical normalization), so the induced laws are unchanged."""
    rng = np.random.default_rng(seed)
    steps = []
    for step in model.steps:
        dists = list(step.dists)
        order = rng.permutation(len(dists))
        new_dists = []
        for j in order:
            d = dists[j]
            atoms = [(tuple(p), w) for p, w in zip(d.points, d.weights)]
            k = int(rng.integers(len(atoms)))
            pt, w = atoms[k]
            atoms[k : k + 1] = [(pt, w / 2.0), (pt, w / 2.0)]
            new_dists.append(DiscreteDistribution(atoms))
        steps.append(ScenarioSet(new_dists, label=step.label))
    return SequenceModel(
        steps=tuple(steps),
        gp=model.gp,
        family_label=model.family_label + "/reencoded",
        ref_steps=model.ref_steps,
    )


def cross_space_check(
    model: SequenceModel,
    phi: TestFunction,
    n: int,
    cfg: NestedEvalConfig,
    seed: int = 0,
) -> float:
    """|nested value of the model - nested value of a re-encoding|.

    Distribution-identical sequences must give the same nested value (the
    limit statement does not depend on the representation space), so the
    returned difference must be <= 1e-12.
    """
    if n > len(model):
        raise ValidationError(f"n={n} exceeds model length {len(model)}")
    v1 = nested_expect(phi, model, n, cfg)
    v2 = nested_expect(phi, reencode_model(model, seed=seed), n, cfg)
    return abs(v1 - v2)
