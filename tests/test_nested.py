"""Backward nested recursion vs the brute-force adapted-policy oracle."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gexpect import (
    DiscreteDistribution,
    ScenarioSet,
    TestFunction,
    ValidationError,
    bruteforce_nested,
    count_policies,
    expect,
    nested_expect,
)
from gexpect.clt import build_iid_family
from gexpect.functions import ramp, square
from gexpect.io import load_preset
from gexpect.nested import GRID_NODE_CAP, NestedEvalConfig, _increments, _per_step, _stencils
from gexpect.verify import random_lattice_model

LATTICE = NestedEvalConfig(mode="exact_lattice")
ORACLE_TOL = 1e-12


def two_sigma_steps(n, sigmas=(1.0, 2.0), y=0.0):
    step = ScenarioSet(
        [DiscreteDistribution([((s, y), 0.5), ((-s, y), 0.5)]) for s in sigmas]
    )
    return [step] * n


def test_steps_of_one_dimension_only():
    """Steps that are all 1-d evaluate; a model mixing 1-d and 2-d steps is refused."""
    flat = ScenarioSet([DiscreteDistribution.symmetric_pair(1.0)])
    pair = ScenarioSet([DiscreteDistribution([((1.0, 0.5), 0.5), ((-1.0, 0.5), 0.5)])])
    assert nested_expect(square(), [flat, flat], 2, LATTICE) == pytest.approx(1.0, abs=ORACLE_TOL)
    for cfg in (LATTICE, NestedEvalConfig((-4.0, 4.0, 801), "grid_interp", "strict")):
        with pytest.raises(ValidationError, match="^distribution 1 has dimension 2, expected 1$"):
            nested_expect(square(), [flat, pair], 2, cfg)


def test_single_step_reduces_to_expect():
    steps = two_sigma_steps(1)
    # delta = 1, so the increment is x*1 + y*1
    direct = expect(TestFunction(lambda x, y: (x + y) ** 2, dim=2), steps[0])
    assert nested_expect(square(), steps, 1, LATTICE) == pytest.approx(direct, abs=1e-14)


def test_two_step_worst_case_variance():
    # delta = 1 makes each step contribute the worst-case variance 4
    steps = two_sigma_steps(2)
    assert nested_expect(square(), steps, 2, LATTICE, delta=1.0) == pytest.approx(8.0, abs=1e-12)
    assert bruteforce_nested(square(), steps, 2, delta=1.0) == pytest.approx(8.0, abs=1e-12)


def test_matches_bruteforce_on_random_models():
    rng = np.random.default_rng(41)
    for _ in range(30):
        steps, n = random_lattice_model(rng)
        a, b = rng.uniform(-1, 1, size=2)
        phi = TestFunction(lambda s, a=a, b=b: a * s + b * np.cos(s), dim=1)
        assert nested_expect(phi, steps, n, LATTICE) == pytest.approx(
            bruteforce_nested(phi, steps, n), abs=ORACLE_TOL
        )


def test_single_scenario_equals_product_measure():
    """No ambiguity: the nested value is the classical tree expectation."""
    d = DiscreteDistribution([((1.0, 0.5), 0.25), ((-1.0, 0.5), 0.75)])
    steps = [ScenarioSet([d])] * 2
    phi = square()
    wx, wy = math.sqrt(0.5), 0.5
    total = 0.0
    for (x1, y1, w1), (x2, y2, w2) in itertools.product(
        [(1.0, 0.5, 0.25), (-1.0, 0.5, 0.75)], repeat=2
    ):
        s = wx * (x1 + x2) + wy * (y1 + y2)
        total += w1 * w2 * s * s
    assert bruteforce_nested(phi, steps, 2) == pytest.approx(total, abs=1e-13)
    cfg = NestedEvalConfig(state_grid=(-4.0, 4.0, 8001), mode="grid_interp", edge="clamp")
    assert nested_expect(phi, steps, 2, cfg) == pytest.approx(total, abs=1e-4)


def test_relabeling_invariance():
    rng = np.random.default_rng(12)
    steps, n = random_lattice_model(rng, n=3)
    phi = TestFunction(lambda s: np.cos(s) + 0.2 * s, dim=1)
    v = nested_expect(phi, steps, n, LATTICE)
    relabeled = []
    for step in steps:
        dists = []
        for d in reversed(step.dists):
            atoms = list(zip(map(tuple, d.points), d.weights))
            dists.append(DiscreteDistribution(list(reversed(atoms))))
        relabeled.append(ScenarioSet(dists))
    assert nested_expect(phi, relabeled, n, LATTICE) == v


def test_nesting_order_is_directional():
    """Swapping the step order changes the value: independence is not
    symmetric, and the nesting order realizes its direction."""
    sign_ambiguous = ScenarioSet(
        [DiscreteDistribution.point_mass((1.0, 0.0)), DiscreteDistribution.point_mass((-1.0, 0.0))]
    )
    rademacher_or_zero = ScenarioSet(
        [
            DiscreteDistribution([((1.0, 0.0), 0.5), ((-1.0, 0.0), 0.5)]),
            DiscreteDistribution.point_mass((0.0, 0.0)),
        ]
    )
    phi = TestFunction(lambda s: -(s * s), dim=1, name="-s^2")
    forward = nested_expect(phi, [sign_ambiguous, rademacher_or_zero], 2, LATTICE, delta=1.0)
    swapped = nested_expect(phi, [rademacher_or_zero, sign_ambiguous], 2, LATTICE, delta=1.0)
    assert forward == pytest.approx(-1.0, abs=1e-14)
    assert swapped == pytest.approx(0.0, abs=1e-14)


def test_grid_interp_halving_changes_value_by_at_most_lip_times_spacing():
    steps = two_sigma_steps(4)
    phi = ramp(clip=3.0)
    lo, hi, n_pts = -6.0, 6.0, 401
    spacing = (hi - lo) / (n_pts - 1)
    coarse = nested_expect(phi, steps, 4, NestedEvalConfig((lo, hi, n_pts), "grid_interp", "clamp"))
    fine = nested_expect(
        phi, steps, 4, NestedEvalConfig((lo, hi, 2 * n_pts - 1), "grid_interp", "clamp")
    )
    assert abs(coarse - fine) <= 1.0 * spacing  # ramp is 1-Lipschitz


def interp_grid_value(phi, steps, n, cfg, delta=None):
    """The grid recursion as one np.interp call per atom per step, with the
    strict coverage check: the reference for the stencil march."""
    lo, hi, num = cfg.state_grid
    d = 1.0 / n if delta is None else delta
    wx, wy = math.sqrt(d), d
    incs = [
        [(wx * dist.points[:, 0] + wy * dist.points[:, 1], dist.weights) for dist in step.dists]
        for step in steps[:n]
    ]
    if cfg.edge == "strict":
        c_lo = c_hi = 0.0
        for step in incs:
            c_lo += min(float(inc.min()) for inc, _ in step)
            c_hi += max(float(inc.max()) for inc, _ in step)
            if c_lo < lo - 1e-12 or c_hi > hi + 1e-12:
                raise ValidationError("does not cover")
    xs = np.linspace(lo, hi, num)
    w_vals = phi(xs)
    for step in reversed(incs):
        best = np.full(xs.shape, -np.inf)
        for inc, wts in step:
            acc = np.zeros(xs.shape)
            for c, w in zip(inc, wts):
                acc += w * np.interp(xs + c, xs, w_vals)
            np.maximum(best, acc, out=best)
        w_vals = best
    return float(np.interp(0.0, xs, w_vals))


@st.composite
def grid_models(draw):
    """A few steps drawn from a pool of one to three ScenarioSet objects (so
    steps repeat or differ), on a grid whose spacing some atoms hit exactly."""
    lo, hi = -draw(st.floats(0.5, 3.0)), draw(st.floats(0.5, 3.0))
    num = draw(st.integers(2, 60))
    h = (hi - lo) / (num - 1)
    coord = st.one_of(
        st.integers(-8, 8).map(lambda j: j * h),  # on grid nodes when delta = 1
        st.floats(-2.0, 2.0),
        st.floats(-20.0, 20.0),  # past either edge of the grid
    )
    atoms = st.lists(st.tuples(coord, st.floats(-1.0, 1.0), st.floats(0.1, 1.0)), min_size=1, max_size=3)

    def law(rows):
        total = sum(w for *_, w in rows)
        return DiscreteDistribution([((x, y), w / total) for x, y, w in rows])

    pool = [
        ScenarioSet([law(rows) for rows in draw(st.lists(atoms, min_size=1, max_size=3))])
        for _ in range(draw(st.integers(1, 3)))
    ]
    n = draw(st.integers(1, 6))
    steps = [pool[draw(st.integers(0, len(pool) - 1))] for _ in range(n)]
    return steps, n, draw(st.sampled_from([None, 1.0])), (lo, hi, num)


@settings(max_examples=200, deadline=None)
@given(
    model=grid_models(),
    edge=st.sampled_from(["clamp", "strict"]),
    cover=st.booleans(),
    a=st.floats(-1.0, 1.0),
    b=st.floats(-1.0, 1.0),
)
def test_grid_interp_matches_interp_reference(model, edge, cover, a, b):
    steps, n, delta, (lo, hi, num) = model
    if cover:  # widen the grid past every reachable partial sum
        wx, wy = (math.sqrt(1.0 / n), 1.0 / n) if delta is None else (1.0, 1.0)
        reach = sum(np.abs(wx * s.points[:, 0] + wy * s.points[:, 1]).max() for s in steps)
        lo, hi = min(lo, -reach - 0.1), max(hi, reach + 0.1)
    cfg = NestedEvalConfig((lo, hi, num), "grid_interp", edge)
    phi = TestFunction(lambda s: a * s + b * np.cos(3.0 * s) + np.abs(s - 0.3), dim=1)
    try:
        want = interp_grid_value(phi, steps, n, cfg, delta)
    except ValidationError:
        with pytest.raises(ValidationError, match="does not cover"):
            nested_expect(phi, steps, n, cfg, delta=delta)
        return
    assert nested_expect(phi, steps, n, cfg, delta=delta) == pytest.approx(want, abs=1e-12)


def reference_stencils(steps, wx, wy, h, exact, num):
    """Per step and scenario, its terms built one law at a time: each atom's
    lower term, then the nonzero upper terms, in atom order."""
    out = []
    for step in steps:
        laws = []
        for d in step.dists:
            y = d.points[:, 1] if d.dim == 2 else 0.0
            u = (wx * d.points[:, 0] + wy * y) / h
            k = np.round(u) if exact else np.floor(u)
            f = 0.0 if exact else u - k
            k = np.clip(k, -num, num - 1).astype(np.int64).tolist()
            lower, upper = (d.weights * (1.0 - f)).tolist(), (d.weights * f).tolist()
            laws.append(list(zip(k, lower)) + [(o + 1, c) for o, c in zip(k, upper) if c])
        out.append(laws)
    return out


@settings(max_examples=100, deadline=None)
@given(model=grid_models(), exact=st.booleans())
def test_flat_stencils_match_the_per_law_terms(model, exact):
    """Term for term, so the march sums the same products in the same order."""
    steps, n, _, (lo, hi, num) = model
    distinct = list({id(s): s for s in steps}.values())
    h = (hi - lo) / (num - 1)
    inc, w, starts, firsts = _increments(distinct, 0.5, 0.25)
    stencils, _ = _stencils(inc, w, starts, h, exact, num)
    assert _per_step(stencils, firsts) == reference_stencils(distinct, 0.5, 0.25, h, exact, num)


def test_exact_lattice_g_ambiguous_n256():
    """The value of the independent dense recursion in bench/reference.json."""
    preset = load_preset("g-ambiguous")
    model = build_iid_family(preset.gp, preset.sigma_levels, preset.mean_levels, 256)
    value = nested_expect(preset.phi, model, 256, LATTICE)
    assert value == pytest.approx(1.071880532156388, abs=1e-12)


def test_exact_lattice_covers_intermediate_partial_sums():
    """Up 1 or 2, then down 1 or 2: the sums after the first step (1, 2) leave
    the range of the final sums (-1..1), and the lattice must still hold them."""
    up = ScenarioSet(
        [
            DiscreteDistribution.point_mass((1.0, 0.0)),
            DiscreteDistribution([((1.0, 0.0), 0.5), ((2.0, 0.0), 0.5)]),
        ]
    )
    down = ScenarioSet(
        [DiscreteDistribution.point_mass((-1.0, 0.0)), DiscreteDistribution.point_mass((-2.0, 0.0))]
    )
    phi = TestFunction(lambda s: s + 0.5 * np.cos(2.0 * s), dim=1)
    for steps in ([up, down], [up, up, down, down]):
        n = len(steps)
        assert nested_expect(phi, steps, n, LATTICE, delta=1.0) == pytest.approx(
            bruteforce_nested(phi, steps, n, delta=1.0), abs=ORACLE_TOL
        )


def test_grid_interp_agrees_with_exact_lattice():
    steps = two_sigma_steps(4)
    phi = ramp(clip=3.0)
    exact = nested_expect(phi, steps, 4, LATTICE)
    grid = nested_expect(
        phi, steps, 4, NestedEvalConfig((-8.0, 8.0, 16001), "grid_interp", "strict")
    )
    assert grid == pytest.approx(exact, abs=2e-4)


class TestValidation:
    def test_strict_grid_coverage(self):
        steps = two_sigma_steps(4)
        cfg = NestedEvalConfig((-1.0, 1.0, 201), "grid_interp", "strict")
        with pytest.raises(ValidationError, match="does not cover"):
            nested_expect(square(), steps, 4, cfg)
        clamp = NestedEvalConfig((-1.0, 1.0, 201), "grid_interp", "clamp")
        nested_expect(square(), steps, 4, clamp)  # truncates instead

    def test_grid_must_contain_zero(self):
        cfg = NestedEvalConfig((1.0, 2.0, 11), "grid_interp", "clamp")
        with pytest.raises(ValidationError, match="contain 0"):
            nested_expect(square(), two_sigma_steps(1), 1, cfg)

    def test_lattice_rejects_incommensurable_increments(self):
        step = ScenarioSet(
            [
                DiscreteDistribution([((1.0, 0.0), 0.5), ((-1.0, 0.0), 0.5)]),
                DiscreteDistribution([((math.sqrt(2.0), 0.0), 0.5), ((-math.sqrt(2.0), 0.0), 0.5)]),
            ]
        )
        with pytest.raises(ValidationError, match="lattice"):
            nested_expect(square(), [step], 1, LATTICE, delta=1.0)

    def test_lattice_width_cap(self):
        """Increments 1 and 2**-20 pass the spacing-ratio cap, but their
        lattice spans 2**21 + 1 nodes in one step: refused before allocating."""
        tiny = 2.0**-20
        step = ScenarioSet(
            [
                DiscreteDistribution([((1.0, 0.0), 0.5), ((-1.0, 0.0), 0.5)]),
                DiscreteDistribution([((tiny, 0.0), 0.5), ((-tiny, 0.0), 0.5)]),
            ]
        )
        for n in (1, 8):
            with pytest.raises(ValidationError, match=f"exceeds cap {GRID_NODE_CAP}"):
                nested_expect(square(), [step] * n, n, LATTICE, delta=1.0)

    def test_policy_cap(self):
        steps = two_sigma_steps(4)
        n_policies = count_policies(steps, 4)
        assert n_policies == 2 ** 15
        with pytest.raises(ValidationError, match=str(n_policies)):
            bruteforce_nested(square(), steps, 4, cap=1000)

    def test_model_too_short(self):
        with pytest.raises(ValidationError):
            nested_expect(square(), two_sigma_steps(2), 3, LATTICE)

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            NestedEvalConfig((1.0, -1.0, 11))
        with pytest.raises(ValidationError):
            NestedEvalConfig((-1.0, 1.0, 1))
        with pytest.raises(ValidationError):
            NestedEvalConfig((-1.0, 1.0, 11), mode="magic")
        with pytest.raises(ValidationError):
            NestedEvalConfig((-1.0, 1.0, 11), edge="loose")
        with pytest.raises(ValidationError, match="num_points"):
            NestedEvalConfig((-1.0, 1.0, GRID_NODE_CAP + 1), mode="grid_interp")
