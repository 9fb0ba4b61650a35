"""Scenario sets, upper/lower expectations, axiom and inequality checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gexpect import (
    DiscreteDistribution,
    NumericsError,
    Report,
    ScenarioSet,
    ValidationError,
    expect,
    holder_check,
    lower_expect,
    verify_axioms,
)
from gexpect.functions import (
    TestFunction,
    abs_power,
    abs_product,
    const,
    coord,
    coord_abs_power,
    cosine,
    identity,
    ramp,
    square,
)
from gexpect.scenarios import canonical_laws, law_sums

AXIOM_TOL = 1e-10

RADEMACHER = ScenarioSet([DiscreteDistribution.symmetric_pair(1.0)])
TWO_SIGMA = ScenarioSet(
    [DiscreteDistribution.symmetric_pair(1.0), DiscreteDistribution.symmetric_pair(2.0)]
)
SQUARE_PLUS_ONE = TestFunction(lambda x: x * x + 1.0, 1, "x^2+1")


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
        assert expect(TestFunction(lambda x: -(x * x)), TWO_SIGMA) == pytest.approx(-1.0, abs=1e-15)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            s = random_set(rng)
            f = TestFunction(lambda x: np.cos(x) + 0.3 * x, dim=1)
            assert expect(f, s) == pytest.approx(enumeration_oracle(f, s), abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            expect(abs_product(), RADEMACHER)

    def test_a_value_that_overflows_is_refused(self):
        far = ScenarioSet([DiscreteDistribution([(1e200, 0.5), (-1.0, 0.5)])])
        for evaluate in (expect, lower_expect):
            with pytest.raises(NumericsError, match=r"^x\^2 is not finite on the atoms$"):
                evaluate(square(), far)

    def test_reprs_name_the_shape(self):
        law = DiscreteDistribution([((1.0, 2.0), 0.5), ((0.0, 0.0), 0.5)])
        assert repr(law) == "DiscreteDistribution(2 atoms, dim=2)"
        assert repr(ScenarioSet(TWO_SIGMA.dists, label="two")) == "ScenarioSet(2 dists, dim=1 'two')"


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
        fns = [square(), SQUARE_PLUS_ONE, const(1.0)]
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
        reports = verify_axioms(TWO_SIGMA, [square(), SQUARE_PLUS_ONE], AXIOM_TOL)
        assert reports["monotonicity"].checks >= 1

    def test_needs_a_function(self):
        with pytest.raises(ValidationError):
            verify_axioms(TWO_SIGMA, [], AXIOM_TOL)

    def test_function_of_another_dimension_is_refused(self):
        with pytest.raises(ValidationError, match="^function dimension 2 != scenario dimension 1$"):
            verify_axioms(TWO_SIGMA, [square(), abs_product()], AXIOM_TOL)


class TestIdenticallyDistributed:
    """Equal upper expectations over a supplied function family."""

    FNS = [identity(), square(), cosine()]

    @staticmethod
    def gaps(s1, s2, fns):
        return [abs(expect(f, s1) - expect(f, s2)) for f in fns]

    def test_order_free(self):
        reordered = ScenarioSet(list(reversed(TWO_SIGMA.dists)))
        assert max(self.gaps(TWO_SIGMA, reordered, self.FNS)) <= 1e-12

    def test_means_differ(self):
        s1 = ScenarioSet([DiscreteDistribution.symmetric_pair(1.0)])
        s2 = ScenarioSet([DiscreteDistribution.point_mass(1.0)])
        assert expect(identity(), s1) == 0.0
        assert expect(identity(), s2) == 1.0
        assert self.gaps(s1, s2, [identity()]) == [1.0]

    def test_atom_split_normalizes(self):
        split = DiscreteDistribution([(1.0, 0.25), (1.0, 0.25), (-1.0, 0.5)])
        assert split.n_atoms == 2
        s2 = ScenarioSet([split, DiscreteDistribution.symmetric_pair(2.0)])
        assert max(self.gaps(TWO_SIGMA, s2, self.FNS)) <= 1e-12

    def test_dimension_mismatch(self):
        pair = ScenarioSet([DiscreteDistribution([((1.0, 1.0), 1.0)])])
        with pytest.raises(ValidationError, match="^function dimension 1 != scenario dimension 2$"):
            self.gaps(RADEMACHER, pair, self.FNS)


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
        with pytest.raises(ValidationError, match="^atom 0: point must have dimension 1 or 2$"):
            DiscreteDistribution([((1.0, 2.0, 3.0), 1.0)])

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
        with pytest.raises(ValidationError, match="^a distribution needs at least one atom$"):
            DiscreteDistribution([])


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
    assert expect(TestFunction(lambda x: f(x) + g(x)), s) <= expect(f, s) + expect(g, s) + AXIOM_TOL
    assert expect(TestFunction(lambda x: lam * f(x)), s) == pytest.approx(lam * expect(f, s), abs=AXIOM_TOL)


@st.composite
def random_laws(draw, dim):
    """A law of 1-6 atoms, random points and weights."""
    k = draw(st.integers(1, 6))
    pts = draw(st.lists(st.tuples(*[st.floats(-5, 5)] * dim), min_size=k, max_size=k))
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k))
    total = sum(raw)
    return DiscreteDistribution([(p, w / total) for p, w in zip(pts, raw)])


def random_sets(dim):
    """Sets of 1-4 laws with 1-6 atoms each, random points and weights."""
    return st.lists(random_laws(dim), min_size=1, max_size=4).map(ScenarioSet)


def cubic(dim):
    return TestFunction(lambda *cs: np.cos(cs[0]) + cs[-1] ** 3, dim=dim)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2]).flatmap(random_sets))
def test_expect_matches_the_per_law_dot_product(s):
    """The flat per-law sums agree with the per-law definition sum_k w_k f(p_k)
    (BLAS ``np.dot``) to 1e-14 of the sum of |w_k f(p_k)|."""
    f = cubic(s.dim)
    per_law = [
        (float(np.dot(d.weights, f.on_points(d.points))), float(np.abs(d.weights * f.on_points(d.points)).sum()))
        for d in s.dists
    ]
    best, scale = max(per_law)
    assert abs(expect(f, s) - best) <= 1e-14 * scale
    assert abs(lower_expect(f, s) - min(per_law)[0]) <= 1e-14 * min(per_law)[1]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2]).flatmap(random_laws))
def test_a_law_is_a_set_of_one_law(law):
    f = cubic(law.dim)
    values = f.on_points(law.points)
    scale = np.abs(law.weights * values).sum()
    assert abs(expect(f, law) - float(np.dot(law.weights, values))) <= 1e-14 * scale
    assert len(law) == 1 and law.starts.tolist() == [0]
    (view,) = law.dists
    assert type(view) is DiscreteDistribution
    assert np.array_equal(view.points, law.points) and np.array_equal(view.weights, law.weights)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2]).flatmap(lambda k: st.tuples(random_sets(k), random_laws(k), random_sets(k))))
def test_a_set_of_sets_is_the_union_of_their_laws(parts):
    """Families and single laws alike: the union holds their laws in turn."""
    union = ScenarioSet(parts)
    laws = [law for part in parts for law in part.dists]
    assert len(union) == len(laws)
    for got, want in zip(union.dists, laws):
        assert np.array_equal(got.points, want.points) and np.array_equal(got.weights, want.weights)
    f = cubic(union.dim)
    assert expect(f, union) == max(expect(f, part) for part in parts)


def test_set_stores_its_laws_flat():
    d1 = DiscreteDistribution([((1.0, 2.0), 0.25), ((-1.0, 0.0), 0.75)])
    d2 = DiscreteDistribution.point_mass((3.0, 3.0))
    s = ScenarioSet([d1, d2, d1])
    assert s.points.tolist() == [[-1.0, 0.0], [1.0, 2.0], [3.0, 3.0], [-1.0, 0.0], [1.0, 2.0]]
    assert s.weights.tolist() == [0.75, 0.25, 1.0, 0.75, 0.25]
    assert s.starts.tolist() == [0, 2, 3]
    assert s.n_atoms == 5
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


# ---------------------------------------------------------------------------
# reference: the certificates as a calculus of function closures, each
# combined function evaluated again on the atoms
# ---------------------------------------------------------------------------

def ref_add(f, g):
    ff, gf = f.fn, g.fn
    return TestFunction(
        lambda *cs: np.asarray(ff(*cs), dtype=float) + np.asarray(gf(*cs), dtype=float), f.dim
    )


def ref_scale(f, lam):
    inner = f.fn
    return TestFunction(lambda *cs: lam * np.asarray(inner(*cs), dtype=float), f.dim)


def ref_expect(f, s):
    return float(law_sums(s.weights, f.on_points(s.points), s.starts).max())


def ref_lower_expect(f, s):
    return -ref_expect(ref_scale(f, -1.0), s)


def ref_verify_axioms(s, fns, tol):
    vals = [f.on_points(s.points) for f in fns]
    ups = [ref_expect(f, s) for f in fns]
    names = [f.name or str(i) for i, f in enumerate(fns)]
    mono, cpres, sub, homog = reports = [
        Report(name)
        for name in ("monotonicity", "constant_preserving", "subadditivity", "positive_homogeneity")
    ]
    for i in range(len(fns)):
        for j in range(len(fns)):
            if i != j and np.min(vals[i] - vals[j]) >= 0:
                mono.record(
                    ups[i] >= ups[j] - tol, ups[j] - ups[i],
                    "%s >= %s pointwise but E[%s]=%r < E[%s]=%r",
                    names[i], names[j], names[i], ups[i], names[j], ups[j],
                )
    for i in range(len(fns)):
        if np.ptp(vals[i]) == 0.0:
            c = float(vals[i][0])
            gap = abs(ups[i] - c)
            cpres.record(gap <= tol, gap, "E[const %r] = %r", c, ups[i])
    for i, f in enumerate(fns):
        for j in range(i, len(fns)):
            lhs = ref_expect(ref_add(f, fns[j]), s)
            rhs = ups[i] + ups[j]
            sub.record(lhs <= rhs + tol, lhs - rhs, "E[%s+%s]=%r > %r", names[i], names[j], lhs, rhs)
    for i, f in enumerate(fns):
        for lam in (0.0, 0.5, 1.0, 2.0):
            lhs = ref_expect(ref_scale(f, lam), s)
            gap = abs(lhs - lam * ups[i])
            homog.record(gap <= tol, gap, "E[%g*%s]=%r != %r", lam, names[i], lhs, lam * ups[i])
    return {r.name: r for r in reports}


def ref_holder_check(s, p, q, tol):
    e_xy = ref_expect(abs_product(), s)
    e_xp = ref_expect(coord_abs_power(0, p), s)
    e_yq = ref_expect(coord_abs_power(1, q), s)
    if e_xy > e_xp ** (1.0 / p) * e_yq ** (1.0 / q) + tol:
        return False
    for p_prime in (p, p + 1.0):
        lhs = ref_expect(coord_abs_power(0, p), s) ** (1.0 / p)
        rhs = ref_expect(coord_abs_power(0, p_prime), s) ** (1.0 / p_prime)
        if lhs > rhs + tol:
            return False
    return True


def function_pool(dim):
    """Named and random functions of ``dim`` coordinates, signed zeros and constants included."""
    coef = st.floats(-2, 2, allow_nan=False)
    if dim == 1:
        fixed = st.sampled_from(
            [identity(), square(), cosine(), abs_power(3.0), ramp(), ramp(clip=1.0), SQUARE_PLUS_ONE]
        )
        built = st.builds(
            lambda a, b, c: TestFunction(lambda x: a * x + b * x * x + c, 1, f"poly({a!r},{b!r},{c!r})"),
            coef, coef, coef,
        )
        zero = st.just(TestFunction(lambda x: 0.0 * x, 1))  # -0.0 at negative points, unnamed
    else:
        fixed = st.sampled_from([coord(0), coord(1), abs_product(), coord_abs_power(0, 3.0)])
        built = st.builds(
            lambda a, b: TestFunction(lambda x, y: a * x * y + b * np.cos(y), 2, f"mix({a!r},{b!r})"),
            coef, coef,
        )
        zero = st.just(TestFunction(lambda x, y: 0.0 * x * y, 2))
    consts = coef.map(lambda c: const(c, dim))
    return st.lists(st.one_of(fixed, built, zero, consts), min_size=1, max_size=4)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([1, 2]).flatmap(lambda k: st.tuples(random_sets(k), function_pool(k))),
    st.sampled_from([AXIOM_TOL, -1.0]) | st.floats(-5.0, -1e-12),
)
def test_certificates_match_the_closure_reference_bit_for_bit(case, tol):
    """Reading each function's values once gives the reports, expectations and
    Hoelder verdicts of the closure calculus, to the bit."""
    s, fns = case
    got, want = verify_axioms(s, fns, tol), ref_verify_axioms(s, fns, tol)
    assert list(got) == list(want)
    for name in want:
        g, w = got[name], want[name]
        assert (g.checks, g.failures, g.worst.hex(), g.details) == (
            w.checks, w.failures, w.worst.hex(), w.details
        ), name
    for f in fns:
        assert expect(f, s).hex() == ref_expect(f, s).hex()
        assert lower_expect(f, s).hex() == ref_lower_expect(f, s).hex()
    if s.dim == 2:
        for p in (2.0, 3.0, 1.5):
            q = p / (p - 1.0)
            assert holder_check(s, p, q, tol) == ref_holder_check(s, p, q, tol)
