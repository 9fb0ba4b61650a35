"""Sequence builders, condition checkers, convergence runner, cross-encoding."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gexpect import (
    GParams,
    SolverConfig,
    ValidationError,
    bruteforce_nested,
    build_iid_family,
    build_perturbed_family,
    check_conditions,
    count_policies,
    cross_space_check,
    expect,
    lower_expect,
    nested_expect,
    run_clt,
    stable_dt,
)
from gexpect.clt import EPS_MAX, SequenceModel, reencode_model
from gexpect.functions import const, coord, coord_abs_power, cosine, ramp
from gexpect.nested import NestedEvalConfig
from gexpect.scenarios import DiscreteDistribution, ScenarioSet

GP_AMB = GParams(-0.5, 0.5, 1.0, 4.0)
GP_DEG = GParams(0.0, 0.0, 1.0, 1.0)

DP_SMALL = NestedEvalConfig(state_grid=(-12.5, 12.5, 1251), mode="grid_interp", edge="clamp")


class TestIIDBuilder:
    def test_point_interval_is_rademacher(self):
        model = build_iid_family(GParams(0.0, 0.0, 2.25, 2.25), 1, 1, 4)
        assert len(model) == 4
        step = model.steps[0]
        assert len(step) == 1
        d = step.dists[0]
        assert d.points[:, 0].tolist() == [-1.5, 1.5]
        assert d.weights.tolist() == [0.5, 0.5]

    def test_second_moment_envelope(self):
        model = build_iid_family(GP_AMB, 2, 1, 2)
        x2 = coord_abs_power(0, 2.0)
        assert expect(x2, model.steps[0]) == pytest.approx(4.0, abs=1e-14)
        assert lower_expect(x2, model.steps[0]) == pytest.approx(1.0, abs=1e-14)

    def test_third_moment(self):
        model = build_iid_family(GP_AMB, 2, 1, 2)
        assert expect(coord_abs_power(0, 3.0), model.steps[0]) == pytest.approx(8.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValidationError):
            build_iid_family(GP_AMB, 0, 1, 4)
        with pytest.raises(ValidationError):
            build_iid_family(GP_AMB, 1, 1, 0)


class TestPerturbedBuilder:
    def test_zero_eps_is_identity(self):
        base = build_iid_family(GP_AMB, 2, 3, 8)
        same = build_perturbed_family(base, np.zeros(8))
        for s_new, s_old in zip(same.steps, base.steps):
            for d_new, d_old in zip(s_new.dists, s_old.dists):
                assert np.array_equal(d_new.points, d_old.points)
                assert np.array_equal(d_new.weights, d_old.weights)

    def test_steps_genuinely_differ(self):
        base = build_iid_family(GP_AMB, 2, 3, 8)
        eps = np.array([(-1.0) ** i / (i + 4.0) for i in range(8)])
        pert = build_perturbed_family(base, eps)
        for i, (s_new, s_old) in enumerate(zip(pert.steps, base.steps)):
            d_new, d_old = s_new.dists[0], s_old.dists[0]
            assert not np.array_equal(d_new.points, d_old.points)
            # symmetric scaling keeps the two-sided mean exactly zero
            assert expect(coord(0), s_new) == 0.0
            assert lower_expect(coord(0), s_new) == 0.0

    def test_eps_bound(self):
        base = build_iid_family(GP_AMB, 2, 3, 4)
        with pytest.raises(ValidationError):
            build_perturbed_family(base, np.array([0.3, 0.0, 0.0, 0.0]))
        with pytest.raises(ValidationError):
            build_perturbed_family(base, np.zeros(3))


class TestConditions:
    def test_iid_baseline(self):
        model = build_iid_family(GP_AMB, 2, 3, 16)
        report = check_conditions(model)
        assert all(u == 0.0 and l == 0.0 for u, l in report.mean_residuals)
        assert report.third_moment_bound == pytest.approx(8.0, rel=1e-14)
        assert max(report.x_proxies) == 0.0
        assert max(report.y_proxies) == 0.0
        assert report.beta == GP_AMB.sig2_lo

    def test_perturbed_proxy_formula(self):
        """Comonotone coupling makes the X proxy deterministic per scenario:
        d_i = sigma_hi^4 * ((1+eps_i)^2 - 1)^2."""
        n = 32
        base = build_iid_family(GP_AMB, 2, 3, n)
        eps = np.array([1.0 / (i + 4.0) for i in range(n)])
        report = check_conditions(build_perturbed_family(base, eps))
        for i in range(n):
            expected = 16.0 * ((1.0 + eps[i]) ** 2 - 1.0) ** 2
            assert report.x_proxies[i] == pytest.approx(expected, rel=1e-12)
            assert report.y_proxies[i] == pytest.approx(eps[i] ** 2, rel=1e-12)

    def test_perturbed_cesaro_decay(self):
        n = 256
        base = build_iid_family(GP_AMB, 2, 3, n)
        eps = np.array([1.0 / (i + 4.0) for i in range(n)])
        report = check_conditions(build_perturbed_family(base, eps))
        assert all(b <= a + 1e-15 for a, b in zip(report.cesaro_x, report.cesaro_x[1:]))
        assert report.cesaro_x[-1] <= report.cesaro_x[0] / 10.0
        assert report.third_moment_bound == pytest.approx(8.0 * 1.25**3, rel=1e-12)

    def test_reference_steps_required(self):
        base = build_iid_family(GP_AMB, 2, 2, 4)
        bare = SequenceModel(steps=base.steps, gp=GP_AMB)  # no ref carried
        with pytest.raises(ValidationError, match="ref_steps"):
            check_conditions(bare)

    def test_structure_mismatch_rejected(self):
        base = build_iid_family(GP_AMB, 2, 3, 4)
        ref = build_iid_family(GP_AMB, 2, 2, 4)
        mismatched = SequenceModel(steps=base.steps, gp=GP_AMB, ref_steps=ref.steps)
        with pytest.raises(ValidationError, match="scenario counts"):
            check_conditions(mismatched)  # 6 scenarios vs 4


class TestRunCLT:
    def pde_cfg(self, gp, half):
        return SolverConfig(-half, half, 0.05, stable_dt(gp, 0.05, 1.0), 1.0)

    def test_constant_function_exact(self):
        model = build_iid_family(GP_AMB, 2, 2, 8)
        report = run_clt(model, const(2.0), [2, 4, 8], DP_SMALL, self.pde_cfg(GP_AMB, 12.5))
        for _, lhs, pde, e_n in report.rows:
            assert lhs == 2.0 and pde == 2.0 and e_n == 0.0

    def test_degenerate_matches_product_formula(self):
        model = build_iid_family(GP_DEG, 1, 1, 32)
        dp = NestedEvalConfig(state_grid=(-6.0, 6.0, 2401), mode="grid_interp", edge="clamp")
        report = run_clt(model, cosine(), [8, 16, 32], dp, self.pde_cfg(GP_DEG, 6.0))
        for n, lhs, _, _ in report.rows:
            assert lhs == pytest.approx(math.cos(1.0 / math.sqrt(n)) ** n, abs=2e-3)
        errs = report.errors()
        assert errs[-1] <= errs[0]

    def test_validations(self):
        model = build_iid_family(GP_AMB, 2, 2, 8)
        pde = self.pde_cfg(GP_AMB, 12.5)
        with pytest.raises(ValidationError, match="increasing"):
            run_clt(model, cosine(), [8, 4], DP_SMALL, pde)
        with pytest.raises(ValidationError, match="steps"):
            run_clt(model, cosine(), [16], DP_SMALL, pde)
        narrow = SolverConfig(-6.0, 6.0, 0.05, stable_dt(GP_AMB, 0.05, 1.0), 1.0)
        with pytest.raises(ValidationError, match="half-width"):
            run_clt(model, cosine(), [4, 8], DP_SMALL, narrow)

    def test_horizon_must_be_one(self):
        # the nested value is the t = 1 limit; a PDE value at another time is no reference
        model = build_iid_family(GP_DEG, 1, 1, 8)
        half_time = SolverConfig(-6.0, 6.0, 0.5, stable_dt(GP_DEG, 0.5, 0.5), 0.5)
        with pytest.raises(ValidationError, match="t = 1"):
            run_clt(model, cosine(), [8], DP_SMALL, half_time)

    def test_removing_a_scenario_cannot_increase_value(self):
        model = build_iid_family(GP_AMB, 2, 2, 6)
        full = nested_expect(ramp(clip=4.0), model, 6, DP_SMALL)
        shrunk_step = ScenarioSet(model.steps[2].dists[:-1])
        steps = list(model.steps)
        steps[2] = shrunk_step
        shrunk = nested_expect(ramp(clip=4.0), steps, 6, DP_SMALL)
        assert shrunk <= full + 1e-12

    def test_lattice_run_agrees_with_bruteforce_at_n4(self):
        # two scenarios per step keeps the policy count under the cap
        gp = GParams(0.0, 0.0, 1.0, 4.0)
        model = build_iid_family(gp, 2, 1, 4)
        assert count_policies(model, 4) == 2**15
        phi = ramp(clip=4.0)
        lattice = NestedEvalConfig(mode="exact_lattice")
        report = run_clt(model, phi, [4], lattice, self.pde_cfg(gp, 12.0))
        v_bf = bruteforce_nested(phi, model, 4)
        assert report.lhs(4) == pytest.approx(v_bf, abs=1e-12)


class TestCrossSpace:
    def test_scenario_permutation_is_exact(self):
        model = build_iid_family(GP_AMB, 2, 3, 4)
        permuted = SequenceModel(
            steps=tuple(ScenarioSet(list(reversed(s.dists))) for s in model.steps),
            gp=model.gp,
        )
        phi = ramp(clip=4.0)
        v1 = nested_expect(phi, model, 4, DP_SMALL)
        v2 = nested_expect(phi, permuted, 4, DP_SMALL)
        assert v1 == v2

    def test_reencoding_difference_below_1e12(self):
        model = build_iid_family(GP_AMB, 2, 3, 6)
        for seed in range(50):
            diff = cross_space_check(model, ramp(clip=4.0), 6, DP_SMALL, seed=seed)
            assert diff <= 1e-12

    def test_reencode_preserves_laws(self):
        model = build_iid_family(GP_AMB, 2, 3, 3)
        other = reencode_model(model, seed=3)
        x2 = coord_abs_power(0, 2.0)
        for s1, s2 in zip(model.steps, other.steps):
            assert expect(x2, s1) == pytest.approx(expect(x2, s2), abs=1e-15)

    def test_length_validation(self):
        model = build_iid_family(GP_AMB, 2, 2, 2)
        with pytest.raises(ValidationError):
            cross_space_check(model, cosine(), 5, DP_SMALL)


# ---------------------------------------------------------------------------
# the flat builder and checker against their per-law definitions
# ---------------------------------------------------------------------------

def reference_law(atoms):
    """One law the per-atom way: sort the atoms by point, then merge exact
    duplicates, summing weights left to right."""
    points = np.array([p for p, _ in atoms], dtype=float)
    weights = np.array([w for _, w in atoms], dtype=float)
    order = np.lexsort(points.T[::-1])
    keep_pts, keep_wts = [], []
    for p, w in zip(points[order], weights[order]):
        if keep_pts and np.array_equal(keep_pts[-1], p):
            keep_wts[-1] += w
        else:
            keep_pts.append(p)
            keep_wts.append(w)
    return np.vstack(keep_pts), np.array(keep_wts)


def reference_perturbed_steps(base, eps):
    """Per step, per law: the atoms scaled and shifted one at a time."""
    return [
        [
            reference_law([((x * (1.0 + e), y + e), w) for (x, y), w in zip(d.points, d.weights)])
            for d in step.dists
        ]
        for step, e in zip(base.steps, eps)
    ]


def reference_conditions(model):
    """The condition report one law at a time, with BLAS dot products. Each
    worst-case value comes with the largest sum of |weight * value| over the
    step's laws, the scale of its rounding error."""

    def worst(step, values_of):
        sums = [(np.dot(d.weights, v), np.dot(d.weights, np.abs(v)))
                for d, v in ((d, values_of(d, j)) for j, d in enumerate(step.dists))]
        return float(max(v for v, _ in sums)), float(max(a for _, a in sums))

    rows = []
    for step, ref in zip(model.steps, model.ref_steps):
        rx = [d.points[:, 0] for d in ref.dists]
        ry = [d.points[:, 1] for d in ref.dists]
        negated, scale = worst(step, lambda d, j: -1.0 * d.points[:, 0])
        rows.append({
            "upper": worst(step, lambda d, j: d.points[:, 0]),
            "lower": (-negated, scale),
            "x3": worst(step, lambda d, j: np.abs(d.points[:, 0]) ** 3.0),
            "y3": worst(step, lambda d, j: np.abs(d.points[:, 1]) ** 3.0),
            "dx": worst(step, lambda d, j: (d.points[:, 0] ** 2 - rx[j] ** 2) ** 2),
            "dy": worst(step, lambda d, j: (d.points[:, 1] - ry[j]) ** 2),
        })
    x_proxies = [max(0.0, r["dx"][0]) for r in rows]
    y_proxies = [max(0.0, r["dy"][0]) for r in rows]
    report = {
        "mean_residuals": [(r["upper"][0], r["lower"][0]) for r in rows],
        "third_moment_bound": max([0.0] + [max(r["x3"][0], r["y3"][0]) for r in rows]),
        "cesaro_x": list(np.cumsum(x_proxies) / np.arange(1, len(rows) + 1)),
        "cesaro_y": list(np.cumsum(y_proxies) / np.arange(1, len(rows) + 1)),
        "beta": model.gp.sig2_lo,
        "x_proxies": x_proxies,
        "y_proxies": y_proxies,
    }
    return report, rows


def reference_mismatch(model):
    """The first coupling error, step by step and scenario by scenario, or None."""
    for step, ref in zip(model.steps, model.ref_steps):
        if len(step) != len(ref):
            return f"comonotone coupling needs matching scenario counts ({len(step)} vs {len(ref)})"
        for j, (d, r) in enumerate(zip(step.dists, ref.dists)):
            if d.n_atoms != r.n_atoms or np.max(np.abs(d.weights - r.weights)) > 1e-12:
                return f"scenario {j}: atom structure does not match the reference"
    return None


def assert_same_steps(steps, reference):
    for step, laws in zip(steps, reference):
        assert len(step) == len(laws)
        for d, (points, weights) in zip(step.dists, laws):
            assert np.array_equal(d.points, points) and np.array_equal(d.weights, weights)


@st.composite
def builder_models(draw):
    """A product family, perturbed or not, with equal weights 1/2 in every law."""
    mu_lo = draw(st.floats(-1.0, 1.0))
    s2_lo = draw(st.floats(0.1, 4.0))
    gp = GParams(mu_lo, mu_lo + draw(st.floats(0.0, 1.0)), s2_lo, s2_lo + draw(st.floats(0.0, 4.0)))
    n = draw(st.integers(1, 12))
    base = build_iid_family(gp, draw(st.integers(1, 3)), draw(st.integers(1, 3)), n)
    eps = draw(st.lists(st.floats(-EPS_MAX, EPS_MAX), min_size=n, max_size=n))
    return base, np.array(eps), draw(st.booleans())


@settings(max_examples=60, deadline=None)
@given(builder_models())
def test_builder_families_match_the_per_law_reference_bitwise(drawn):
    base, eps, perturb = drawn
    model = build_perturbed_family(base, eps) if perturb else base
    if perturb:
        assert_same_steps(model.steps, reference_perturbed_steps(base, eps))
    want, _ = reference_conditions(model)
    assert json.dumps(vars(check_conditions(model)), sort_keys=True) == json.dumps(want, sort_keys=True)


@st.composite
def weighted_models(draw):
    """Steps drawn from a pool of random 2-d sets with random weights (so
    steps repeat or differ), perturbed by random eps."""
    coord = st.floats(-5.0, 5.0)
    pool = []
    for _ in range(draw(st.integers(1, 3))):
        laws = []
        for _ in range(draw(st.integers(1, 3))):
            rows = draw(st.lists(st.tuples(coord, coord, st.floats(0.01, 1.0)), min_size=1, max_size=5))
            total = sum(w for *_, w in rows)
            laws.append(DiscreteDistribution([((x, y), w / total) for x, y, w in rows]))
        pool.append(ScenarioSet(laws))
    n = draw(st.integers(1, 8))
    steps = tuple(pool[draw(st.integers(0, len(pool) - 1))] for _ in range(n))
    eps = draw(st.lists(st.floats(-EPS_MAX, EPS_MAX), min_size=n, max_size=n))
    return SequenceModel(steps=steps, gp=GP_AMB), np.array(eps)


@settings(max_examples=60, deadline=None)
@given(weighted_models())
def test_weighted_families_match_the_per_law_reference(drawn):
    base, eps = drawn
    model = build_perturbed_family(base, eps)
    assert_same_steps(model.steps, reference_perturbed_steps(base, eps))
    merged = reference_mismatch(model)  # a tie merged two atoms of a law
    if merged is not None:
        with pytest.raises(ValidationError, match=f"^{re.escape(merged)}$"):
            check_conditions(model)
        return
    got = check_conditions(model)
    want, rows = reference_conditions(model)
    for i, r in enumerate(rows):
        for value, key in [(got.mean_residuals[i][0], "upper"), (got.mean_residuals[i][1], "lower"),
                           (got.x_proxies[i], "dx"), (got.y_proxies[i], "dy")]:
            assert abs(value - r[key][0]) <= 1e-14 * r[key][1]
    scale3 = max(max(r["x3"][1], r["y3"][1]) for r in rows)
    assert abs(got.third_moment_bound - want["third_moment_bound"]) <= 1e-14 * scale3
    for key, proxy in [("cesaro_x", "dx"), ("cesaro_y", "dy")]:
        scale = max(r[proxy][1] for r in rows)
        assert np.allclose(getattr(got, key), want[key], rtol=0.0, atol=1e-14 * scale)


@st.composite
def coupled_models(draw):
    """Steps drawn from variants of one template set: moved points (which
    couple), one law reweighted, one law with an extra atom, the last law
    dropped; references drawn from the template and its moved copy."""
    n_laws = draw(st.integers(1, 4))
    template = [draw(st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=3, unique=True)) for _ in range(n_laws)]

    def law(xs, tilt=0.0, shift=0.0):
        w = np.full(len(xs), 1.0 / len(xs)) + tilt * np.r_[1.0, -1.0, np.zeros(len(xs) - 2)]
        return DiscreteDistribution([((x + shift, 0.0), float(p)) for x, p in zip(xs, w)])

    j = draw(st.integers(0, n_laws - 1))
    ref = ScenarioSet([law(xs) for xs in template])
    moved = ScenarioSet([law(xs, shift=0.5) for xs in template])
    variants = [ref, moved]
    variants.append(ScenarioSet([law(xs, tilt=0.1 if i == j else 0.0) for i, xs in enumerate(template)]))
    variants.append(ScenarioSet([law(xs + [9.0] if i == j else xs) for i, xs in enumerate(template)]))
    if n_laws > 1:
        variants.append(ScenarioSet([law(xs) for xs in template[:-1]]))
    n = draw(st.integers(1, 6))
    steps = tuple(draw(st.sampled_from(variants)) for _ in range(n))
    refs = tuple(draw(st.sampled_from([ref, moved])) for _ in range(n))
    return SequenceModel(steps=steps, gp=GP_AMB, ref_steps=refs)


@settings(max_examples=100, deadline=None)
@given(coupled_models())
def test_coupling_errors_match_the_step_by_step_reference(model):
    want = reference_mismatch(model)
    if want is None:
        check_conditions(model)
    else:
        with pytest.raises(ValidationError, match=f"^{re.escape(want)}$"):
            check_conditions(model)


def tying_pair(scale):
    """The smallest x in [1.1, 1.9) whose next float gives the same product with ``scale``."""
    for x in np.linspace(1.1, 1.9, 4001):
        if x * scale == np.nextafter(x, 2.0) * scale:
            return float(x), float(np.nextafter(x, 2.0))
    raise AssertionError("no tie found")


class TestFlatBuild:
    def test_tie_reorders_atoms(self):
        # x1 < x2 scale to one float, so the y coordinates decide the new order
        x1, x2 = tying_pair(0.9)
        base = SequenceModel(
            steps=(ScenarioSet([DiscreteDistribution([((x1, 1.0), 0.5), ((x2, 0.0), 0.5)])]),), gp=GP_AMB
        )
        model = build_perturbed_family(base, np.array([-0.1]))
        assert model.steps[0].points.tolist() == [[x1 * 0.9, -0.1], [x1 * 0.9, 0.9]]
        assert_same_steps(model.steps, reference_perturbed_steps(base, [-0.1]))

    def test_tie_merges_atoms(self):
        x1, x2 = tying_pair(0.9)
        law = DiscreteDistribution([((x1, 0.0), 0.25), ((x2, 0.0), 0.5), ((-1.0, 0.0), 0.25)])
        base = SequenceModel(steps=(ScenarioSet([law]),) * 2, gp=GP_AMB)
        model = build_perturbed_family(base, np.array([-0.1, 0.0]))
        assert model.steps[0].weights.tolist() == [0.25, 0.75]
        assert model.steps[1].weights.tolist() == [0.25, 0.25, 0.5]
        assert_same_steps(model.steps, reference_perturbed_steps(base, [-0.1, 0.0]))

    def test_overflowing_scale_is_refused(self):
        law = DiscreteDistribution([((1.6e308, 0.0), 0.5), ((-1.6e308, 0.0), 0.5)])
        base = SequenceModel(steps=(ScenarioSet([law]),) * 2, gp=GP_AMB)
        with pytest.raises(ValidationError, match="^atom points must be finite$"):
            build_perturbed_family(base, np.array([0.0, 0.25]))

    def test_steps_are_flat_sets(self):
        base = build_iid_family(GP_AMB, 2, 3, 4)
        model = build_perturbed_family(base, np.array([0.1, -0.1, 0.05, 0.0]))
        for step in model.steps:
            assert step.points.shape == (12, 2) and step.starts.tolist() == [0, 2, 4, 6, 8, 10]

    def test_atom_structure_mismatch_names_the_scenario(self):
        base = build_iid_family(GP_AMB, 2, 3, 4)
        laws = list(base.steps[0].dists)
        laws[4] = DiscreteDistribution([((1.0, 0.0), 0.25), ((-1.0, 0.0), 0.75)])
        odd = ScenarioSet(laws)
        model = SequenceModel(steps=base.steps[:2] + (odd, base.steps[0]), gp=GP_AMB, ref_steps=base.steps)
        with pytest.raises(ValidationError, match="^scenario 4: atom structure does not match"):
            check_conditions(model)
        laws[4] = DiscreteDistribution.point_mass((1.0, 0.0))
        model = SequenceModel(steps=(ScenarioSet(laws),) * 4, gp=GP_AMB, ref_steps=base.steps)
        with pytest.raises(ValidationError, match="^scenario 4: atom structure does not match"):
            check_conditions(model)
