"""Sequence builders, hypothesis checkers, and the convergence runner.

The theorem under test says: for a sequence of pairs (X_i, Y_i) with
directional independence, exact two-sided zero mean and bounded third
moments for the X_i, Cesaro-vanishing distance of the squares/levels from
a reference pair, and a uniform ellipticity floor, the worst-case value of
phi(S_n/sqrt(n) + T_n/n) converges to the PDE value at (t=1, x=0).

``run_clt`` measures that convergence: the left side via the nested
backward recursion with step weights (sqrt(delta), delta), delta = 1/n,
and the right side via the monotone finite-difference solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .functions import TestFunction, coord, coord_abs_power
from .gfunction import GParams
from .heat import SolverConfig, solve, value_at
from .nested import NestedEvalConfig, nested_expect
from .scenarios import DiscreteDistribution, ScenarioSet, expect, lower_expect

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
    inflation would otherwise dominate the desk-scale convergence gap)."""
    eps = np.asarray(eps, dtype=float)
    if eps.shape != (len(base),):
        raise ValidationError(f"eps must have one entry per step ({len(base)})")
    if np.any(np.abs(eps) > EPS_MAX):
        raise ValidationError(f"|eps_i| must be <= {EPS_MAX}")
    steps = []
    for i, step in enumerate(base.steps):
        scale_i = 1.0 + eps[i]
        shift_i = eps[i]
        dists = []
        for d in step.dists:
            atoms = [
                ((x * scale_i, y + shift_i), w)
                for (x, y), w in zip(d.points, d.weights)
            ]
            dists.append(DiscreteDistribution(atoms))
        steps.append(ScenarioSet(dists, label=step.label))
    return SequenceModel(
        steps=tuple(steps),
        gp=base.gp,
        family_label=f"perturbed[{base.family_label}]",
        ref_steps=base.ref_steps if base.ref_steps is not None else base.steps,
    )


def _coupled_proxies(step: ScenarioSet, ref: ScenarioSet) -> tuple[float, float]:
    """Comonotone coupling proxies for one step.

    Scenario j of the step is paired with scenario j of the reference, and
    atoms are paired by index (the canonical atom order keeps signs
    aligned). The X proxy is the worst-case mean of |X^2 - Xref^2|^2, the Y
    proxy the worst-case mean of |Y - Yref|^2.
    """
    if len(step) != len(ref):
        raise ValidationError(
            "comonotone coupling needs matching scenario counts "
            f"({len(step)} vs {len(ref)})"
        )
    dx = dy = 0.0
    for j, (d, r) in enumerate(zip(step.dists, ref.dists)):
        if d.n_atoms != r.n_atoms or np.max(np.abs(d.weights - r.weights)) > 1e-12:
            raise ValidationError(f"scenario {j}: atom structure does not match the reference")
        dx = max(dx, float(np.dot(d.weights, (d.points[:, 0] ** 2 - r.points[:, 0] ** 2) ** 2)))
        dy = max(dy, float(np.dot(d.weights, (d.points[:, 1] - r.points[:, 1]) ** 2)))
    return dx, dy


def check_conditions(model: SequenceModel) -> ConditionReport:
    """Compute the theorem's hypotheses for every step of the model.

    Mean residuals are the upper and lower expectations of X_i (both must
    be exactly zero for the shipped builders). The third-moment bound is
    the max over steps of the worst-case third absolute moments of X_i and
    Y_i. The coupling proxies pair each step with its comonotone reference
    ``model.ref_steps`` (required), and the report carries their running
    Cesaro averages. The ellipticity floor is sig2_lo.
    """
    if model.ref_steps is None:
        raise ValidationError("check_conditions needs a model with reference steps (ref_steps)")
    x_fn = coord(0)
    x_abs3 = coord_abs_power(0, 3.0)
    y_abs3 = coord_abs_power(1, 3.0)

    residuals: list[tuple[float, float]] = []
    third = 0.0
    x_proxies: list[float] = []
    y_proxies: list[float] = []
    for step, ref in zip(model.steps, model.ref_steps):
        residuals.append((expect(x_fn, step), lower_expect(x_fn, step)))
        third = max(third, expect(x_abs3, step), expect(y_abs3, step))
        dx, dy = _coupled_proxies(step, ref)
        x_proxies.append(dx)
        y_proxies.append(dy)
    cesaro_x = list(np.cumsum(x_proxies) / np.arange(1, len(x_proxies) + 1))
    cesaro_y = list(np.cumsum(y_proxies) / np.arange(1, len(y_proxies) + 1))
    return ConditionReport(
        mean_residuals=residuals,
        third_moment_bound=third,
        cesaro_x=cesaro_x,
        cesaro_y=cesaro_y,
        beta=model.gp.sig2_lo,
        x_proxies=x_proxies,
        y_proxies=y_proxies,
    )


def required_half_width(gp: GParams, t_final: float) -> float:
    """Domain half-width keeping boundary influence at 0 below tolerance."""
    return 6.0 * gp.sigma_hi * float(np.sqrt(t_final)) + gp.mu_abs * t_final


def run_clt(
    model: SequenceModel,
    phi: TestFunction,
    n_schedule,
    cfg_dp: NestedEvalConfig,
    cfg_pde: SolverConfig,
) -> ConvergenceReport:
    """Measure the convergence of the nested value to the PDE value.

    One row per n in the (increasing) schedule; the PDE reference is
    computed once at (t_final, 0). The PDE domain must cover the
    6-sigma envelope of the limit pair.
    """
    n_schedule = [int(n) for n in n_schedule]
    if not n_schedule or any(b <= a for a, b in zip(n_schedule, n_schedule[1:])):
        raise ValidationError("n_schedule must be nonempty and strictly increasing")
    if n_schedule[-1] > len(model):
        raise ValidationError(
            f"schedule reaches n={n_schedule[-1]} but the model has {len(model)} steps"
        )
    half = required_half_width(model.gp, cfg_pde.t_final)
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
