"""Backward nested recursion vs the brute-force adapted-policy oracle."""

import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gexpect import (
    DiscreteDistribution,
    GParams,
    NumericsError,
    ScenarioSet,
    TestFunction,
    ValidationError,
    bruteforce_nested,
    count_policies,
    expect,
    nested_expect,
)
from gexpect.clt import build_iid_family
from gexpect.functions import coord, cosine, ramp, square
from gexpect.io import load_preset
from gexpect.nested import (
    GRID_NODE_CAP,
    LAW_BLOCK,
    NODE_BLOCK,
    POLICY_CAP,
    NestedEvalConfig,
    _dense_steps,
    _stencils,
)
from gexpect.scenarios import stack_sets
from gexpect.verify import random_lattice_model
from oracles import binomial_value

LATTICE = NestedEvalConfig(mode="exact_lattice")
ORACLE_TOL = 1e-12


def two_sigma_steps(n, sigmas=(1.0, 2.0), y=0.0):
    step = ScenarioSet(
        [DiscreteDistribution([((s, y), 0.5), ((-s, y), 0.5)]) for s in sigmas]
    )
    return [step] * n


def test_steps_of_one_dimension_only():
    """Steps that are all 1-d evaluate; a model mixing 1-d and 2-d steps is refused,
    naming the first step (1-based, repeated steps counted) of another dimension."""
    flat = ScenarioSet([DiscreteDistribution.symmetric_pair(1.0)])
    pair = ScenarioSet([DiscreteDistribution([((1.0, 0.5), 0.5), ((-1.0, 0.5), 0.5)])])
    assert nested_expect(square(), [flat, flat], 2, LATTICE) == pytest.approx(1.0, abs=ORACLE_TOL)
    for cfg in (LATTICE, NestedEvalConfig((-4.0, 4.0, 801), "grid_interp")):
        with pytest.raises(ValidationError, match="^step 2 has dimension 2, expected 1$"):
            nested_expect(square(), [flat, pair], 2, cfg)
        with pytest.raises(ValidationError, match="^step 3 has dimension 2, expected 1$"):
            nested_expect(square(), [flat, flat, pair], 3, cfg)
    with pytest.raises(ValidationError, match="^step 3 has dimension 2, expected 1$"):
        bruteforce_nested(square(), [flat, flat, pair], 3)
    with pytest.raises(ValidationError, match="^step 3 has dimension 2, expected 1$"):
        count_policies([flat, flat, pair], 3)


def test_single_step_reduces_to_expect():
    steps = two_sigma_steps(1)
    # n = 1, so both step weights are 1 and the increment is x + y
    direct = expect(TestFunction(lambda x, y: (x + y) ** 2, dim=2), steps[0])
    assert nested_expect(square(), steps, 1, LATTICE) == pytest.approx(direct, abs=1e-14)


def test_two_step_worst_case_variance():
    # each step contributes its worst-case variance 4, times the weight^2 = 1/2
    steps = two_sigma_steps(2)
    assert nested_expect(square(), steps, 2, LATTICE) == pytest.approx(4.0, abs=1e-12)
    assert bruteforce_nested(square(), steps, 2) == pytest.approx(4.0, abs=1e-12)


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
    cfg = NestedEvalConfig(state_grid=(-4.0, 4.0, 8001), mode="grid_interp")
    assert nested_expect(phi, steps, 2, cfg) == pytest.approx(total, abs=1e-4)


def test_relabeling_invariance():
    rng = np.random.default_rng(12)
    steps, n = random_lattice_model(rng)
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
    forward = nested_expect(phi, [sign_ambiguous, rademacher_or_zero], 2, LATTICE)
    swapped = nested_expect(phi, [rademacher_or_zero, sign_ambiguous], 2, LATTICE)
    assert forward == pytest.approx(-0.5, abs=1e-14)
    assert swapped == pytest.approx(0.0, abs=1e-14)


def test_grid_interp_halving_changes_value_by_at_most_lip_times_spacing():
    steps = two_sigma_steps(4)
    phi = ramp(clip=3.0)
    lo, hi, n_pts = -6.0, 6.0, 401
    spacing = (hi - lo) / (n_pts - 1)
    coarse = nested_expect(phi, steps, 4, NestedEvalConfig((lo, hi, n_pts), "grid_interp"))
    fine = nested_expect(
        phi, steps, 4, NestedEvalConfig((lo, hi, 2 * n_pts - 1), "grid_interp")
    )
    assert abs(coarse - fine) <= 1.0 * spacing  # ramp is 1-Lipschitz


def interp_grid_value(phi, steps, n, cfg):
    """The grid recursion as one np.interp call per atom per step, clamping
    at the edges as np.interp does: the reference for the stencil march."""
    lo, hi, num = cfg.state_grid
    wx, wy = math.sqrt(1.0 / n), 1.0 / n
    incs = [
        [(wx * dist.points[:, 0] + wy * dist.points[:, 1], dist.weights) for dist in step.dists]
        for step in steps[:n]
    ]
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
        st.integers(-8, 8).map(lambda j: j * h),  # on grid nodes when n = 1 and y = 0
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
    return steps, n, (lo, hi, num)


@settings(max_examples=200, deadline=None)
@given(
    model=grid_models(),
    cover=st.booleans(),
    a=st.floats(-1.0, 1.0),
    b=st.floats(-1.0, 1.0),
)
def test_grid_interp_matches_interp_reference(model, cover, a, b):
    steps, n, (lo, hi, num) = model
    if cover:  # widen the grid past every reachable partial sum
        wx, wy = math.sqrt(1.0 / n), 1.0 / n
        reach = sum(np.abs(wx * s.points[:, 0] + wy * s.points[:, 1]).max() for s in steps)
        lo, hi = min(lo, -reach - 0.1), max(hi, reach + 0.1)
    cfg = NestedEvalConfig((lo, hi, num), "grid_interp")
    phi = TestFunction(lambda s: a * s + b * np.cos(3.0 * s) + np.abs(s - 0.3), dim=1)
    want = interp_grid_value(phi, steps, n, cfg)
    assert nested_expect(phi, steps, n, cfg) == pytest.approx(want, abs=1e-12)


def test_shipped_grid_clamps_at_preset_scale():
    """The g-ambiguous grid, [-12.5, 12.5] with 2,501 nodes, is narrower than
    the reach of the partial sums at n = 128 (about 23); the march still
    equals the clamped per-atom np.interp reference there."""
    preset = load_preset("g-ambiguous")
    steps, n = preset.build_model().steps, 128
    wx, wy = math.sqrt(1.0 / n), 1.0 / n
    reach = sum(np.abs(wx * s.points[:, 0] + wy * s.points[:, 1]).max() for s in steps[:n])
    assert reach > preset.dp.state_grid[1] + 10.0
    want = interp_grid_value(preset.phi, steps, n, preset.dp)
    assert nested_expect(preset.phi, steps, n, preset.dp) == pytest.approx(want, abs=1e-12)


def many_law_steps():
    """Two steps of 2 * ``LAW_BLOCK`` + 5 symmetric two-atom scenarios each."""
    laws = 2 * LAW_BLOCK + 5
    return [
        ScenarioSet([
            DiscreteDistribution([((s, m), 0.5), ((-s, m), 0.5)])
            for s, m in zip(np.linspace(0.5, 2.0, laws), np.resize([-0.5, 0.1, 0.5], laws) * sign)
        ])
        for sign in (1.0, -1.0)
    ]


def test_grid_blocks_of_scenarios_and_nodes_match_the_interp_reference():
    """Steps of more scenarios than ``LAW_BLOCK``, on a grid of more nodes than
    ``NODE_BLOCK``: the maxima over blocks and the node blocks, the last ones
    partial, give the value of the per-atom np.interp reference."""
    steps = many_law_steps()
    cfg = NestedEvalConfig((-6.0, 6.0, 2 * NODE_BLOCK + 101), "grid_interp")
    phi = TestFunction(lambda s: np.cos(3.0 * s) + np.abs(s - 0.3), dim=1)
    want = interp_grid_value(phi, steps, 2, cfg)
    assert nested_expect(phi, steps, 2, cfg) == pytest.approx(want, abs=1e-12)


def reference_stencils(steps, wx, wy, h, exact, num):
    """Per step and scenario, its terms built one law at a time: each atom's
    lower term, then the nonzero upper terms, in atom order. Grid increments
    are clipped to [-num, num - 1] nodes; a lattice spans the reach of the
    sums, so exact ones are not."""
    out = []
    for step in steps:
        laws = []
        for d in step.dists:
            y = d.points[:, 1] if d.dim == 2 else 0.0
            u = (wx * d.points[:, 0] + wy * y) / h
            u = u if exact else np.clip(u, -num, num - 1)
            k = np.round(u) if exact else np.floor(u)
            f = 0.0 if exact else u - k
            k = k.astype(np.int64).tolist()
            lower, upper = (d.weights * (1.0 - f)).tolist(), (d.weights * f).tolist()
            laws.append(list(zip(k, lower)) + [(o + 1, c) for o, c in zip(k, upper) if c])
        out.append(laws)
    return out


@settings(max_examples=100, deadline=None)
@given(model=grid_models(), exact=st.booleans())
@example(model=(many_law_steps(), 2, (-6.0, 6.0, 601)), exact=False)
def test_flat_stencils_match_the_per_law_terms(model, exact):
    """Exact mode: term for term, so the march sums the same products in the
    same order. Grid mode: per block of ``LAW_BLOCK`` scenarios of a step, the
    offsets are the distinct offsets of its terms, sorted, and the matrix holds
    each scenario's terms summed per offset, in term order; the padding covers
    the largest |offset|."""
    steps, _, (lo, hi, num) = model
    distinct = list({id(s): s for s in steps}.values())
    h = (hi - lo) / (num - 1)
    points, w, starts, firsts = stack_sets(distinct)
    inc = 0.5 * points[:, 0] + 0.25 * (points[:, 1] if points.shape[1] == 2 else 0.0)
    want = reference_stencils(distinct, 0.5, 0.25, h, exact, num)
    if exact:
        assert _stencils(inc, w, starts, firsts, h) == want
        return
    dense, pad = _dense_steps(inc, w, starts, firsts, h, num)
    assert len(dense) == len(want)
    for blocks, laws in zip(dense, want):
        assert len(blocks) == -(-len(laws) // LAW_BLOCK)
        for (offsets, weights), b in zip(blocks, range(0, len(laws), LAW_BLOCK)):
            block = laws[b : b + LAW_BLOCK]
            assert offsets == sorted({o for terms in block for o, _ in terms})
            summed = np.zeros((len(block), len(offsets)))
            for row, terms in zip(summed, block):
                for o, c in terms:
                    row[offsets.index(o)] += c
            assert weights.tolist() == summed.tolist()
    assert pad == max(abs(o) for laws in want for terms in laws for o, _ in terms)


def test_oracle_does_not_share_the_step_cuts(monkeypatch):
    """A ``stack_sets`` that cuts the stacked laws into steps at the wrong
    places changes the recursion's value but not the oracle's, which reads
    each step's laws itself. The steps hold 1 and 3 scenarios, so cutting at
    the scenario counts taken in reverse order (3, then 1) moves two laws."""
    one = ScenarioSet([DiscreteDistribution([((1.0, 0.0), 0.5), ((-1.0, 0.0), 0.5)])])
    three = ScenarioSet(
        [DiscreteDistribution([((s, 0.0), 0.5), ((-s, 0.0), 0.5)]) for s in (1.0, 2.0, 3.0)]
    )
    steps = [one, three]
    phi = TestFunction(lambda s: np.cos(s) + 0.3 * s, dim=1)
    dp, brute = nested_expect(phi, steps, 2, LATTICE), bruteforce_nested(phi, steps, 2)

    def wrong_cut(sets):
        points, weights, starts, _ = stack_sets(sets)
        counts = [len(s) for s in reversed(sets)]
        return points, weights, starts, list(itertools.accumulate(counts[:-1], initial=0))

    monkeypatch.setattr("gexpect.nested.stack_sets", wrong_cut)
    assert bruteforce_nested(phi, steps, 2) == brute
    assert nested_expect(phi, steps, 2, LATTICE) != dp


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
        assert nested_expect(phi, steps, n, LATTICE) == pytest.approx(
            bruteforce_nested(phi, steps, n), abs=ORACLE_TOL
        )


def one_sided_model(rng, sign):
    """1 to 4 distinct-or-repeated steps whose increments all have the sign ``sign``:
    x atoms are u*g*sqrt(n) and y atoms v*g*n with u in 1..3 and v in 0..1, times
    the sign, so each increment is (u + v)*g, 1 to 4 lattice steps from 0."""
    n = int(rng.integers(1, 5))
    g = float(rng.choice([0.5, 0.25]))
    pool = []
    for _ in range(int(rng.integers(1, 3))):
        dists = []
        for _ in range(int(rng.integers(1, 3))):
            us = rng.choice([1, 2, 3], size=int(rng.integers(1, 3)), replace=False)
            wts = rng.dirichlet(np.ones(us.size))
            atoms = [((sign * u * g * math.sqrt(n), sign * int(rng.integers(2)) * g * n), float(w))
                     for u, w in zip(us, wts)]
            dists.append(DiscreteDistribution(atoms))
        pool.append(ScenarioSet(dists))
    return [pool[int(rng.integers(len(pool)))] for _ in range(n)], n


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["up", "down"])
def test_exact_lattice_on_one_sided_models(sign):
    """Every increment on one side of 0, so the sums the first i steps reach
    leave 0 behind and their lowest and highest nodes move apart: the march
    computes W_i on exactly those nodes, and the value is the oracle's."""
    rng = np.random.default_rng(29)
    phi = TestFunction(lambda s: np.cos(3.0 * s) + 0.3 * s, dim=1)
    checked = 0
    while checked < 25:
        steps, n = one_sided_model(rng, sign)
        if count_policies(steps, n) > POLICY_CAP:
            continue
        assert nested_expect(phi, steps, n, LATTICE) == pytest.approx(
            bruteforce_nested(phi, steps, n), abs=ORACLE_TOL
        )
        checked += 1


def test_exact_lattice_takes_a_rounding_residue_for_zero():
    """At n = 2 each step's x*sqrt(1/2) + y/2 cancels to a residue of about 1e-17,
    which is no lattice step: the sums stay at 0, where cos is 1."""
    r = 0.25 * math.sqrt(2.0)
    steps = [
        ScenarioSet([DiscreteDistribution.point_mass((-r, 0.5))]),
        ScenarioSet([DiscreteDistribution.point_mass((0.5 * r, -0.25))]),
    ]
    assert nested_expect(cosine(), steps, 2, LATTICE) == pytest.approx(
        bruteforce_nested(cosine(), steps, 2), abs=ORACLE_TOL
    )


def test_grid_interp_agrees_with_exact_lattice():
    steps = two_sigma_steps(4)
    phi = ramp(clip=3.0)
    exact = nested_expect(phi, steps, 4, LATTICE)
    grid = nested_expect(
        phi, steps, 4, NestedEvalConfig((-8.0, 8.0, 16001), "grid_interp")
    )
    assert grid == pytest.approx(exact, abs=2e-4)


@st.composite
def convex_iid_models(draw):
    """An iid product family with dyadic bounds (sigma in quarters, mu in
    eighths), so that the exact lattice exists, and 2 or 3 levels per axis,
    so that the family holds the top corner (sigma_hi, mu_hi)."""
    s_lo, s_hi = sorted(draw(st.integers(1, 8)) / 4 for _ in range(2))
    m_lo, m_hi = sorted(draw(st.integers(-8, 8)) / 8 for _ in range(2))
    gp = GParams(m_lo, m_hi, s_lo**2, s_hi**2)
    return build_iid_family(gp, draw(st.integers(2, 3)), draw(st.integers(2, 3)), 64)


class TestClosedForms:
    """For a convex nondecreasing phi each backward step keeps the value
    convex and nondecreasing, so every step picks the law largest in convex
    order and in mean, (sigma_hi, mu_hi), and the nested value is a binomial sum."""

    @settings(max_examples=20, deadline=None)
    @given(
        model=convex_iid_models(),
        ramps=st.lists(st.tuples(st.floats(-2, 2), st.floats(0, 2)), min_size=1, max_size=3),
    )
    def test_convex_payoff_equals_binomial_sum(self, model, ramps):
        phi = TestFunction(
            lambda x: sum(slope * np.maximum(x - strike, 0.0) for strike, slope in ramps), dim=1
        )
        gp = model.gp
        for n in (4, 16, 64):
            value = nested_expect(phi, model, n, LATTICE)
            binomial = binomial_value(phi, gp.sigma_hi, gp.mu_hi, n)
            assert abs(value - binomial) <= 1e-12 * max(1.0, abs(value))

    def test_ramp_on_g_ambiguous_at_256(self):
        preset = load_preset("g-ambiguous")
        model = build_iid_family(preset.gp, preset.sigma_levels, preset.mean_levels, 256)
        value = nested_expect(ramp(), model, 256, LATTICE)
        binomial = binomial_value(ramp(), preset.gp.sigma_hi, preset.gp.mu_hi, 256)
        assert abs(value - binomial) <= 1e-12 * max(1.0, abs(value))

    def test_clipped_ramp_is_not_convex_and_exceeds_the_binomial_sum(self):
        preset = load_preset("g-ambiguous")
        assert preset.phi.name == "relu_clip:6"
        model = build_iid_family(preset.gp, preset.sigma_levels, preset.mean_levels, 256)
        for n in (16, 64, 256):
            binomial = binomial_value(preset.phi, preset.gp.sigma_hi, preset.gp.mu_hi, n)
            assert nested_expect(preset.phi, model, n, LATTICE) - binomial > 1e-3

    def test_classical_cos_is_cos_of_the_step_to_the_n(self):
        # one fair +/- n^-1/2 coin per step: E[cos(S)] = cos(n^-1/2)^n
        model = load_preset("classical-cos").build_model()
        for n in (8, 16, 64, 256):
            value = nested_expect(cosine(), model, n, LATTICE)
            assert abs(value - math.cos(n**-0.5) ** n) <= 1e-12


class TestValidation:
    def test_uncovered_grid_clamps(self):
        # the partial sums reach 4, past both edges of the grid: valid input, clamped
        steps, cfg = two_sigma_steps(4), NestedEvalConfig((-1.0, 1.0, 201), "grid_interp")
        want = interp_grid_value(square(), steps, 4, cfg)
        assert nested_expect(square(), steps, 4, cfg) == pytest.approx(want, abs=1e-12)

    def test_an_increment_past_any_float_node_count_reads_an_edge(self):
        # 1e10 / 1e-300 overflows to inf nodes; the sums clamp to the edges, where phi is +-1
        step = ScenarioSet([DiscreteDistribution([((1e10, 0.0), 0.25), ((-1e10, 0.0), 0.75)])])
        phi = TestFunction(lambda s: s * 1e300, dim=1)
        cfg = NestedEvalConfig((-1e-300, 1e-300, 3), "grid_interp")
        assert nested_expect(phi, [step], 1, cfg) == pytest.approx(-0.5, abs=1e-12)

    def test_grid_must_contain_zero(self):
        with pytest.raises(ValidationError, match="contain 0"):
            NestedEvalConfig((1.0, 2.0, 11), "grid_interp")
        NestedEvalConfig((1.0, 2.0, 11), "exact_lattice")  # the lattice mode ignores the grid

    def test_both_evaluators_check_the_step_count(self):
        steps = two_sigma_steps(2)
        for evaluate in (lambda n: nested_expect(square(), steps, n, LATTICE),
                         lambda n: bruteforce_nested(square(), steps, n),
                         lambda n: count_policies(steps, n)):  # refused as the evaluators refuse
            for n in (0, -3, 3):
                want = rf"^n must be an integer in \[1, 2\] \(the model's step count\), got {n}$"
                with pytest.raises(ValidationError, match=want):
                    evaluate(n)

    def test_lattice_rejects_incommensurable_increments(self):
        step = ScenarioSet(
            [
                DiscreteDistribution([((1.0, 0.0), 0.5), ((-1.0, 0.0), 0.5)]),
                DiscreteDistribution([((math.sqrt(2.0), 0.0), 0.5), ((-math.sqrt(2.0), 0.0), 0.5)]),
            ]
        )
        with pytest.raises(ValidationError, match="lattice"):
            nested_expect(square(), [step], 1, LATTICE)

    def test_lattice_rejects_near_multiples(self):
        """0.5 and 0.25 + 3e-10 pass the tolerant GCD with spacing 0.25 + 3e-10,
        but 0.5 lies 2.4e-9 spacings off that lattice, past the 2e-9 allowed."""
        step = ScenarioSet(
            [DiscreteDistribution.point_mass((0.5, 0.0)), DiscreteDistribution.point_mass((0.25 + 3e-10, 0.0))]
        )
        with pytest.raises(ValidationError, match="^reachable partial sums do not lie on a common lattice$"):
            nested_expect(square(), [step], 1, LATTICE)

    def test_phi_must_be_a_function_of_the_sum(self):
        steps = two_sigma_steps(1)
        for evaluate in (lambda phi: nested_expect(phi, steps, 1, LATTICE),
                         lambda phi: bruteforce_nested(phi, steps, 1)):
            with pytest.raises(ValidationError, match="^phi_of_sum must be a function of the scalar sum$"):
                evaluate(coord(0))

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
                nested_expect(square(), [step] * n, n, LATTICE)

    def test_policy_cap(self):
        # 2**31 policies: counted up to the cap, then reported as one more than it
        steps = two_sigma_steps(5)
        assert count_policies(steps, 4) == 2**15
        assert count_policies(steps, 5) == POLICY_CAP + 1
        with pytest.raises(ValidationError, match=f"^the first 5 steps admit more than {POLICY_CAP} adapted"):
            bruteforce_nested(square(), steps, 5)

    @pytest.mark.parametrize("n", [16, 64])
    def test_policy_cap_refuses_a_deep_model_at_once(self, n):
        # the exact count has 169,406 bits at n = 16 on this model; it is never formed
        model = load_preset("g-ambiguous").build_model()
        start = time.perf_counter()
        with pytest.raises(ValidationError, match=f"^the first {n} steps admit more than 1000000 adapted policies$"):
            bruteforce_nested(cosine(), model, n)
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("cfg", [LATTICE, None], ids=["exact_lattice", "grid_interp"])
    def test_phi_not_finite_on_the_grid_is_refused(self, cfg):
        # a clipped ramp that is inf past |x| > 5: the reachable sums of the shipped model pass 5
        preset = load_preset("g-ambiguous")
        phi = TestFunction(lambda x: np.where(np.abs(x) > 5.0, np.inf, np.clip(x, 0.0, 6.0)), 1, "inf-ramp")
        with pytest.raises(NumericsError, match="^phi_of_sum is not finite on the state grid$"):
            nested_expect(phi, preset.build_model(), 16, cfg or preset.dp)

    @pytest.mark.parametrize("mode", ["exact_lattice", "grid_interp", "bruteforce_nested"])
    def test_phi_overflowing_on_the_grid_is_refused_without_a_warning(self, mode):
        # x^2 overflows at 1e200; the suite turns numpy's RuntimeWarning into an error
        step = ScenarioSet([DiscreteDistribution([((1e200, 0.0), 0.5), ((-1e200, 0.0), 0.5)])])
        where = "partial sums" if mode == "bruteforce_nested" else "state grid"
        with pytest.raises(NumericsError, match=f"^phi_of_sum is not finite on the {where}$"):
            if mode == "bruteforce_nested":  # the oracle refuses what the recursion refuses
                bruteforce_nested(square(), [step, step], 2)
            else:
                nested_expect(square(), [step], 1, NestedEvalConfig((-1e200, 1e200, 11), mode))

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
        with pytest.raises(ValidationError, match="num_points"):
            NestedEvalConfig((-1.0, 1.0, GRID_NODE_CAP + 1), mode="grid_interp")
        for num in (11.0, True):  # an integer, not a float or a bool
            with pytest.raises(ValidationError, match=rf"^num_points must be an integer in \[2, 2000000\], got {num}$"):
                NestedEvalConfig((-1.0, 1.0, num), "grid_interp")
        assert NestedEvalConfig((-1.0, 1.0, np.int64(11))).mode == "grid_interp"  # the default mode
        for half, shown in ((math.inf, "inf"), (1e308, r"1e\+308")):  # both ends of the second are finite
            with pytest.raises(ValidationError, match=rf"^x_range \[-{shown}, {shown}\] must have a finite width$"):
                NestedEvalConfig((-half, half, 11))
