"""Scenario sets, upper/lower expectations, axiom and inequality checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gexpect import (
    DiscreteDistribution,
    ScenarioSet,
    ValidationError,
    expect,
    holder_check,
    identically_distributed,
    lower_expect,
    verify_axioms,
)
from gexpect.functions import (
    TestFunction,
    abs_product,
    add,
    const,
    cosine,
    identity,
    negate,
    scale,
    square,
)
from gexpect.scenarios import canonical_laws

AXIOM_TOL = 1e-10

RADEMACHER = ScenarioSet([DiscreteDistribution.symmetric_pair(1.0)])
TWO_SIGMA = ScenarioSet(
    [DiscreteDistribution.symmetric_pair(1.0), DiscreteDistribution.symmetric_pair(2.0)]
)


def random_set(rng, dim=1, max_dists=4, max_atoms=5, radius=3.0):
    dists = []
    for _ in range(rng.integers(1, max_dists + 1)):
        k = int(rng.integers(1, max_atoms + 1))
        pts = rng.uniform(-radius, radius, size=(k, dim))
        w = rng.dirichlet(np.ones(k))
        dists.append(DiscreteDistribution([(tuple(p), float(x)) for p, x in zip(pts, w)]))
    return ScenarioSet(dists)


def enumeration_oracle(f, s):
    """Pure-python per-scenario enumeration of the upper envelope."""
    best = -math.inf
    for d in s.dists:
        total = 0.0
        for p, w in zip(d.points, d.weights):
            total += w * float(f.on_points(p.reshape(1, -1))[0])
        best = max(best, total)
    return best


class TestExpect:
    def test_single_symmetric_square(self):
        assert expect(square(), RADEMACHER) == pytest.approx(1.0, abs=1e-15)

    def test_corner_scenario(self):
        assert expect(square(), TWO_SIGMA) == pytest.approx(4.0, abs=1e-15)
        assert expect(negate(square()), TWO_SIGMA) == pytest.approx(-1.0, abs=1e-15)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            s = random_set(rng)
            f = TestFunction(lambda x: np.cos(x) + 0.3 * x, dim=1)
            assert expect(f, s) == pytest.approx(enumeration_oracle(f, s), abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            expect(abs_product(), RADEMACHER)


class TestLowerExpect:
    def test_min_over_scenarios(self):
        assert lower_expect(square(), TWO_SIGMA) == pytest.approx(1.0, abs=1e-15)

    def test_constant_preserving(self):
        assert lower_expect(const(3.0), TWO_SIGMA) == pytest.approx(3.0, abs=1e-15)

    def test_envelope_order_randomized(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            s = random_set(rng)
            f = TestFunction(lambda x: x**3 - x, dim=1)
            assert lower_expect(f, s) <= expect(f, s) + 1e-14

    def test_equality_iff_scenarios_agree(self):
        single = ScenarioSet([DiscreteDistribution.symmetric_pair(1.5)])
        f = square()
        assert lower_expect(f, single) == pytest.approx(expect(f, single), abs=1e-15)
        assert lower_expect(f, TWO_SIGMA) < expect(f, TWO_SIGMA)


class TestAxioms:
    def test_linear_square_const_pass(self):
        reports = verify_axioms(TWO_SIGMA, [identity(), square(), const(3.0)], AXIOM_TOL)
        assert list(reports) == [
            "monotonicity", "constant_preserving", "subadditivity", "positive_homogeneity"
        ]
        assert all(r.passed for r in reports.values())

    def test_constant_function_preserved_exactly(self):
        reports = verify_axioms(TWO_SIGMA, [const(2.5)], AXIOM_TOL)
        assert reports["constant_preserving"].passed
        assert reports["constant_preserving"].checks == 1
        assert expect(const(2.5), TWO_SIGMA) == 2.5

    def test_failed_checks_keep_five_witnesses(self):
        """A negative tolerance fails every check, so every witness is formatted."""
        fns = [square(), add(square(), const(1.0)), const(1.0)]
        reports = verify_axioms(TWO_SIGMA, fns, -10.0)
        for name, r in reports.items():
            assert r.checks >= 1 and r.failures == r.checks, name
            assert len(r.details) == min(r.checks, 5)
        assert reports["subadditivity"].details[0].startswith("E[x^2+x^2]=")
        assert reports["positive_homogeneity"].worst == 0.0

    def test_randomized_campaign(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            s = random_set(rng)
            a, b = rng.uniform(-1, 1, size=2)
            f1 = TestFunction(lambda x, a=a, b=b: a * x + b * x * x, dim=1, name="f1")
            f2 = TestFunction(lambda x, a=a, b=b: a * x + b * x * x + 1.0 + x * x, dim=1, name="f2")
            reports = verify_axioms(s, [f1, f2, const(float(rng.uniform(-2, 2)))], AXIOM_TOL)
            assert all(r.passed for r in reports.values()), reports

    def test_monotone_pairs_are_found(self):
        reports = verify_axioms(TWO_SIGMA, [square(), add(square(), const(1.0))], AXIOM_TOL)
        assert reports["monotonicity"].checks >= 1

    def test_needs_a_function(self):
        with pytest.raises(ValidationError):
            verify_axioms(TWO_SIGMA, [], AXIOM_TOL)


class TestIdenticallyDistributed:
    FNS = [identity(), square(), cosine()]

    def test_order_free(self):
        reordered = ScenarioSet(list(reversed(TWO_SIGMA.dists)))
        assert identically_distributed(TWO_SIGMA, reordered, self.FNS, 1e-12)

    def test_means_differ(self):
        s1 = ScenarioSet([DiscreteDistribution.symmetric_pair(1.0)])
        s2 = ScenarioSet([DiscreteDistribution.point_mass(1.0)])
        assert expect(identity(), s1) == 0.0
        assert expect(identity(), s2) == 1.0
        assert not identically_distributed(s1, s2, [identity()], 1e-12)

    def test_atom_split_normalizes(self):
        split = DiscreteDistribution([(1.0, 0.25), (1.0, 0.25), (-1.0, 0.5)])
        assert split.n_atoms == 2
        s2 = ScenarioSet([split, DiscreteDistribution.symmetric_pair(2.0)])
        assert identically_distributed(TWO_SIGMA, s2, self.FNS, 1e-12)

    def test_dimension_mismatch(self):
        pair = ScenarioSet([DiscreteDistribution([((1.0, 1.0), 1.0)])])
        with pytest.raises(ValidationError):
            identically_distributed(RADEMACHER, pair, self.FNS, 1e-12)


class TestHolder:
    def test_equality_case(self):
        s = ScenarioSet([DiscreteDistribution([((1.0, 1.0), 0.5), ((-1.0, -1.0), 0.5)])])
        assert holder_check(s, 2.0, 2.0, 1e-12)

    def test_degenerate_x(self):
        s = ScenarioSet([DiscreteDistribution([((0.0, 1.0), 0.5), ((0.0, -1.0), 0.5)])])
        assert holder_check(s, 2.0, 2.0, 1e-12)

    def test_randomized(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            assert holder_check(random_set(rng, dim=2, radius=2.0), 2.0, 2.0, 1e-10)

    def test_exponent_validation(self):
        s = ScenarioSet([DiscreteDistribution([((1.0, 1.0), 1.0)])])
        with pytest.raises(ValidationError):
            holder_check(s, 2.0, 3.0, 1e-10)
        with pytest.raises(ValidationError):
            holder_check(s, 1.0, 1.0, 1e-10)
        with pytest.raises(ValidationError):
            holder_check(RADEMACHER, 2.0, 2.0, 1e-10)


class TestDiscreteDistribution:
    def test_weight_validation(self):
        with pytest.raises(ValidationError):
            DiscreteDistribution([(1.0, 0.6), (-1.0, 0.6)])
        with pytest.raises(ValidationError):
            DiscreteDistribution([(1.0, -0.1), (-1.0, 1.1)])

    def test_dimension_uniformity(self):
        with pytest.raises(ValidationError):
            DiscreteDistribution([(1.0, 0.5), ((1.0, 2.0), 0.5)])

    def test_atoms_sorted_and_merged(self):
        d = DiscreteDistribution([(2.0, 0.25), (-1.0, 0.5), (2.0, 0.25)])
        assert d.n_atoms == 2
        assert d.points[:, 0].tolist() == [-1.0, 2.0]
        assert d.weights.tolist() == [0.5, 0.5]

    def test_points_must_be_finite(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValidationError, match="finite"):
                DiscreteDistribution([(bad, 0.5), (1.0, 0.5)])

    def test_scenario_set_nonempty(self):
        with pytest.raises(ValidationError):
            ScenarioSet([])


def test_single_distribution_reduces_to_classical():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-2, 2, size=4)
    w = rng.dirichlet(np.ones(4))
    d = DiscreteDistribution([(float(p), float(x)) for p, x in zip(pts, w)])
    s = ScenarioSet([d])
    f = cosine()
    classical = float(np.dot(d.weights, np.cos(d.points[:, 0])))
    assert expect(f, s) == pytest.approx(classical, abs=1e-15)
    assert lower_expect(f, s) == pytest.approx(classical, abs=1e-15)


@st.composite
def scenario_sets(draw):
    n_dists = draw(st.integers(1, 3))
    dists = []
    for _ in range(n_dists):
        n_atoms = draw(st.integers(1, 4))
        pts = draw(
            st.lists(
                st.floats(-3, 3, allow_nan=False),
                min_size=n_atoms,
                max_size=n_atoms,
                unique=True,
            )
        )
        raw = draw(
            st.lists(st.floats(0.05, 1.0), min_size=n_atoms, max_size=n_atoms)
        )
        total = sum(raw)
        dists.append(
            DiscreteDistribution([(p, w / total) for p, w in zip(pts, raw)])
        )
    return ScenarioSet(dists)


@settings(max_examples=50, deadline=None)
@given(scenario_sets(), st.floats(-2, 2, allow_nan=False), st.floats(0, 2, allow_nan=False))
def test_envelope_properties_hypothesis(s, slope, lam):
    f = TestFunction(lambda x, a=slope: a * x + x * x, dim=1, name="q")
    g = cosine()
    assert lower_expect(f, s) <= expect(f, s) + 1e-12
    assert expect(add(f, g), s) <= expect(f, s) + expect(g, s) + AXIOM_TOL
    assert expect(scale(f, lam), s) == pytest.approx(lam * expect(f, s), abs=AXIOM_TOL)


@st.composite
def random_sets(draw, dim):
    """Sets of 1-4 laws with 1-6 atoms each, random points and weights."""
    dists = []
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.integers(1, 6))
        pts = draw(st.lists(st.tuples(*[st.floats(-5, 5)] * dim), min_size=k, max_size=k))
        raw = draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k))
        total = sum(raw)
        dists.append(DiscreteDistribution([(p, w / total) for p, w in zip(pts, raw)]))
    return ScenarioSet(dists)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2]).flatmap(random_sets))
def test_expect_matches_the_per_law_dot_product(s):
    """The flat per-law sums agree with the per-law definition sum_k w_k f(p_k)
    (BLAS ``np.dot``) to 1e-14 of the sum of |w_k f(p_k)|."""
    f = TestFunction(lambda *cs: np.cos(cs[0]) + cs[-1] ** 3, dim=s.dim)
    per_law = [
        (float(np.dot(d.weights, f.on_points(d.points))), float(np.abs(d.weights * f.on_points(d.points)).sum()))
        for d in s.dists
    ]
    best, scale = max(per_law)
    assert abs(expect(f, s) - best) <= 1e-14 * scale
    assert abs(lower_expect(f, s) - min(per_law)[0]) <= 1e-14 * min(per_law)[1]


def test_set_stores_its_laws_flat():
    d1 = DiscreteDistribution([((1.0, 2.0), 0.25), ((-1.0, 0.0), 0.75)])
    d2 = DiscreteDistribution.point_mass((3.0, 3.0))
    s = ScenarioSet([d1, d2, d1])
    assert s.points.tolist() == [[-1.0, 0.0], [1.0, 2.0], [3.0, 3.0], [-1.0, 0.0], [1.0, 2.0]]
    assert s.weights.tolist() == [0.75, 0.25, 1.0, 0.75, 0.25]
    assert s.starts.tolist() == [0, 2, 3]
    assert s.atom_union() is s.points
    assert len(s) == 3
    for got, want in zip(s.dists, [d1, d2, d1]):
        assert np.array_equal(got.points, want.points) and np.array_equal(got.weights, want.weights)


def test_canonical_laws_sorts_and_merges_each_law_on_its_own():
    points = np.array([[2.0], [1.0], [2.0], [0.5], [0.5], [0.5]])
    weights = np.array([0.25, 0.5, 0.25, 0.1, 0.2, 0.7])
    pts, wts, starts = canonical_laws(points, weights, np.array([0, 0, 0, 1, 1, 1]))
    assert pts[:, 0].tolist() == [1.0, 2.0, 0.5]
    assert wts.tolist() == [0.5, 0.5, (0.1 + 0.2) + 0.7]  # summed left to right
    assert starts.tolist() == [0, 2]
