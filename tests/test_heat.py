"""Monotone explicit solver: closed forms, structure, composition identity."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gexpect import (
    DiscreteDistribution,
    GParams,
    NestedEvalConfig,
    NumericsError,
    ScenarioSet,
    SolverConfig,
    TestFunction,
    ValidationError,
    cfl_limit,
    nested_expect,
    semigroup_check,
    solve,
    stable_dt,
    value_at,
)
from gexpect.functions import TestFunction, const, coord, cosine, ramp
from gexpect import heat
from gexpect.heat import _march
from gexpect.io import load_preset, parse_solver_config
from gexpect.nested import _aligned
from oracles import classical_oracle

DEG = GParams(0.0, 0.0, 1.0, 1.0)
AMB = GParams(-1.0, 1.0, 1.0, 4.0)
BACH = GParams(-0.5, 0.5, 1.0, 4.0)

CLOSED_FORM_TOL = 5e-3


def norm_cdf(z):
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def norm_pdf(z):
    return math.exp(-z * z / 2.0) / math.sqrt(2.0 * math.pi)


def cfg_for(gp, half, dx=0.02, t_final=1.0):
    return SolverConfig(-half, half, dx, stable_dt(gp, dx, t_final), t_final)


def refined(cfg):
    return SolverConfig(cfg.x_lo, cfg.x_hi, cfg.dx / 2, cfg.dt / 4, cfg.t_final)


def corners(gp):
    """The (drift, variance) corners of the uncertainty rectangle."""
    return [(q, s2) for q in (gp.mu_lo, gp.mu_hi) for s2 in (gp.sig2_lo, gp.sig2_hi)]


def marched_in_chunks(gp, phi, cfg, chunk):
    """The profiles after every ``chunk`` steps of the march ``solve`` runs,
    and the final profile."""
    v = phi(cfg.grid())
    profiles = []
    for done in range(0, cfg.n_steps, chunk):
        v = _march(v, gp, cfg.dx, cfg.dt, min(chunk, cfg.n_steps - done))
        profiles.append(v)
    return profiles


def four_corner_march(v, gp, dx, dt_step, n_steps):
    """Reference: the unsplit march, maximizing over each corner of the rectangle."""
    v = v.copy()
    edge_values = (v[0], v[-1])
    for m in range(n_steps):
        d2 = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / (dx * dx)
        d_fwd = (v[2:] - v[1:-1]) / dx
        d_bwd = (v[1:-1] - v[:-2]) / dx
        best = np.full(v.size - 2, -np.inf)
        for q, s2 in corners(gp):
            drift = q * (d_fwd if q >= 0 else d_bwd)
            np.maximum(best, drift + 0.5 * s2 * d2, out=best)
        v[1:-1] += dt_step * best
        v[0], v[-1] = edge_values
    return v


_MAG = st.floats(0.05, 2.0)
_VAR = st.floats(0.2, 4.0)


@st.composite
def g_params(draw):
    """GParams with the mean interval straddling, above or below zero, at zero,
    or a nonzero point; the variance interval is a point half the time."""
    x, y = sorted((draw(_MAG), draw(_MAG)))
    mu = draw(st.sampled_from([(-x, y), (x, y), (-y, -x), (0.0, 0.0), (x, x), (-x, -x)]))
    s_lo, s_hi = sorted((draw(_VAR), draw(_VAR)))
    return GParams(*mu, s_lo, s_lo if draw(st.booleans()) else s_hi)


class TestSeparableMarch:
    @settings(max_examples=60, deadline=None)
    @given(gp=g_params(), phi=st.sampled_from([cosine(), ramp()]), n_steps=st.integers(1, 200))
    @example(gp=GParams(-1.0, 1.0, 1.0, 4.0), phi=cosine(), n_steps=200)
    @example(gp=GParams(0.3, 0.8, 1.0, 4.0), phi=ramp(), n_steps=200)
    @example(gp=GParams(-0.8, -0.3, 1.0, 4.0), phi=ramp(), n_steps=200)
    @example(gp=GParams(0.0, 0.0, 1.0, 4.0), phi=cosine(), n_steps=200)
    @example(gp=GParams(0.5, 0.5, 1.0, 4.0), phi=ramp(), n_steps=200)
    @example(gp=GParams(-1.0, 1.0, 2.0, 2.0), phi=cosine(), n_steps=200)
    def test_matches_four_corner_reference(self, gp, phi, n_steps):
        dx = 0.1
        dt = 0.9 * cfl_limit(gp, dx)
        cfg = SolverConfig(-3.0, 3.0, dx, dt, n_steps * dt)
        new = solve(gp, phi, cfg).grid_values
        ref = four_corner_march(phi(cfg.grid()), gp, dx, cfg.dt, cfg.n_steps)
        assert np.max(np.abs(new - ref)) <= 1e-12

    def test_batch_rows_equal_single_row_marches(self):
        dx = 0.1
        v0 = np.cos(np.linspace(-3.0, 3.0, 61))
        dts = np.array([0.2, 0.5, 0.9]) * cfl_limit(AMB, dx)
        batch = _march(np.array([v0, v0, v0]), AMB, dx, dts, 100)
        for row, dt in zip(batch, dts):
            assert np.array_equal(row, _march(v0, AMB, dx, dt, 100))

    @settings(max_examples=40, deadline=None)
    @given(
        gp=g_params(),
        fractions=st.lists(st.floats(0.1, 1.0), min_size=1, max_size=3, unique=True),
        n_steps=st.integers(1, 60),
    )
    def test_any_batch_row_equals_its_one_row_march(self, gp, fractions, n_steps):
        dx = 0.1
        xs = np.linspace(-3.0, 3.0, 61)
        rows = np.array([np.cos(xs + k) + 0.3 * k * xs for k in range(len(fractions))])
        dts = np.array(fractions) * cfl_limit(gp, dx)
        batch = _march(rows, gp, dx, dts, n_steps)
        assert batch.shape == rows.shape
        for row, v0, dt in zip(batch, rows, dts):
            single = _march(v0, gp, dx, dt, n_steps)
            assert single.shape == v0.shape
            assert np.array_equal(row, single)


class TestClosedForms:
    def test_constant_preserved(self):
        cfg = cfg_for(AMB, 13.0, dx=0.1)
        vf = solve(AMB, const(2.0), cfg)
        assert np.max(np.abs(vf.grid_values - 2.0)) < 1e-12
        steps = marched_in_chunks(AMB, const(2.0), cfg, 1)
        assert len(steps) == cfg.n_steps
        assert max(np.ptp(v) for v in steps) < 1e-12

    def test_gaussian_cos(self):
        cfg = cfg_for(DEG, 7.0)
        v0 = value_at(solve(DEG, cosine(), cfg), 0.0)
        assert abs(v0 - math.exp(-0.5)) <= CLOSED_FORM_TOL

    def test_bachelier_upper_corner(self):
        # convex nondecreasing payoff selects (mu_hi, sig2_hi)
        cfg = cfg_for(BACH, 12.5)
        v0 = value_at(solve(BACH, ramp(), cfg), 0.0)
        exact = 0.5 * norm_cdf(0.25) + 2.0 * norm_pdf(0.25)
        assert abs(v0 - exact) <= CLOSED_FORM_TOL
        quad = classical_oracle(2.0, 0.5, 1.0, ramp(), 200)
        assert abs(quad - exact) <= CLOSED_FORM_TOL

    def test_refinement_contracts_smooth_error(self):
        cfg = cfg_for(DEG, 7.0)
        exact = math.exp(-0.5)
        e1 = abs(value_at(solve(DEG, cosine(), cfg), 0.0) - exact)
        e2 = abs(value_at(solve(DEG, cosine(), refined(cfg)), 0.0) - exact)
        assert e1 / e2 >= 3.0

    def test_refinement_improves_kinked_payoff(self):
        # upwind drift is first order in dx, so the contraction is ~2x here
        cfg = cfg_for(BACH, 12.5)
        exact = 0.5 * norm_cdf(0.25) + 2.0 * norm_pdf(0.25)
        e1 = abs(value_at(solve(BACH, ramp(), cfg), 0.0) - exact)
        e2 = abs(value_at(solve(BACH, ramp(), refined(cfg)), 0.0) - exact)
        assert e1 / e2 >= 1.5


class TestValueAt:
    def test_node_and_midpoint(self):
        cfg = cfg_for(DEG, 6.0, dx=0.5)
        vf = solve(DEG, cosine(), cfg)
        xs, vs = vf.x, vf.grid_values
        assert value_at(vf, xs[3]) == vs[3]
        mid = 0.5 * (xs[4] + xs[5])
        assert value_at(vf, mid) == pytest.approx(0.5 * (vs[4] + vs[5]), abs=1e-15)

    def test_bracketing(self):
        cfg = cfg_for(DEG, 6.0, dx=0.5)
        vf = solve(DEG, cosine(), cfg)
        rng = np.random.default_rng(4)
        for x in rng.uniform(-6, 6, size=20):
            j = int(np.searchsorted(vf.x, x)) - 1
            lo, hi = sorted((vf.grid_values[j], vf.grid_values[j + 1]))
            assert lo - 1e-12 <= value_at(vf, x) <= hi + 1e-12

    def test_outside_grid_rejected(self):
        vf = solve(DEG, cosine(), cfg_for(DEG, 6.0, dx=0.5))
        with pytest.raises(ValidationError):
            value_at(vf, 6.5)


class TestStructure:
    def test_maximum_principle(self):
        cfg = cfg_for(AMB, 13.0, dx=0.1)
        phi = cosine()
        lo, hi = -1.0, 1.0
        steps = marched_in_chunks(AMB, phi, cfg, 1)
        for v in steps:
            assert v.min() >= lo - 1e-12 and v.max() <= hi + 1e-12
        vf = solve(AMB, phi, cfg)
        assert np.array_equal(steps[-1], vf.grid_values)
        assert float(np.max(np.abs(vf.grid_values))) <= 1.0 + 1e-12  # |cos| <= 1

    def test_comparison(self):
        cfg = cfg_for(AMB, 13.0, dx=0.1)
        f1 = cosine()
        f2 = TestFunction(lambda x: np.cos(x) + 0.5)
        v1 = solve(AMB, f1, cfg).grid_values
        v2 = solve(AMB, f2, cfg).grid_values
        assert np.all(v1 <= v2 + 1e-12)

    def test_sublinear_in_terminal_data(self):
        cfg = cfg_for(AMB, 13.0, dx=0.1)
        f1, f2 = cosine(), ramp(clip=4.0)
        v_sum = value_at(solve(AMB, TestFunction(lambda x: f1(x) + f2(x)), cfg), 0.0)
        v1 = value_at(solve(AMB, f1, cfg), 0.0)
        v2 = value_at(solve(AMB, f2, cfg), 0.0)
        assert v_sum <= v1 + v2 + 1e-9

    def test_convex_monotone_profile_selects_upper_corner(self):
        """For convex nondecreasing data the interior profile stays convex and
        nondecreasing, so the maximizing corner is (mu_hi, sig2_hi)."""
        cfg = cfg_for(BACH, 12.5, dx=0.1)
        margin = int(5.0 / cfg.dx)  # clears the clamp boundary layer
        inner = slice(margin, -margin)

        for v in marched_in_chunks(BACH, ramp(), cfg, 50):
            w = v[inner]
            assert np.all(np.diff(w) >= -1e-12)
            assert np.all(np.diff(w, 2) >= -1e-12)

        v = solve(BACH, ramp(), cfg).grid_values
        dx = cfg.dx
        d2 = (v[2:] - 2 * v[1:-1] + v[:-2]) / dx**2
        fwd = (v[2:] - v[1:-1]) / dx
        bwd = (v[1:-1] - v[:-2]) / dx
        upper = BACH.mu_hi * fwd + 0.5 * BACH.sig2_hi * d2
        others = [
            q * (fwd if q >= 0 else bwd) + 0.5 * s2 * d2 for q, s2 in corners(BACH)
        ]
        for cand in others:
            assert np.all(upper[inner] >= cand[inner] - 1e-12)


class TestSemigroup:
    def test_b_zero_is_exact(self):
        cfg = cfg_for(DEG, 7.0, dx=0.1)
        assert semigroup_check(DEG, cosine(), 1.0, 0.0, cfg) == 0.0

    def test_a_zero_is_exact(self):
        # with a = 0 both routes are one leg of horizon b^2
        cfg = cfg_for(AMB, 13.0, dx=0.1)
        assert semigroup_check(AMB, cosine(), 0.0, 1.0, cfg) == 0.0

    def test_half_time_split_degenerate(self):
        a = b = math.sqrt(0.5)
        cfg = cfg_for(DEG, 7.0)
        d_coarse = semigroup_check(DEG, cosine(), a, b, cfg)
        assert d_coarse <= 1e-2
        d_fine = semigroup_check(DEG, cosine(), a, b, refined(cfg))
        assert d_coarse / d_fine >= 2.5  # first order in dt: ~4x under dt/4

    def test_unit_split_ambiguous(self):
        cfg = cfg_for(AMB, 19.0, dx=0.04, t_final=2.0)
        d_coarse = semigroup_check(AMB, cosine(), 1.0, 1.0, cfg)
        assert d_coarse <= 1e-2
        d_fine = semigroup_check(AMB, cosine(), 1.0, 1.0, refined(cfg))
        assert d_fine < d_coarse

    @pytest.mark.parametrize(
        "gp, half, coarse, fine",
        [
            (DEG, 7.0, 1.8048326150266192e-05, 4.511565641185378e-06),
            (AMB, 13.0, 2.1900301217958607e-05, 5.473982970904956e-06),
        ],
        ids=["degenerate", "ambiguous"],
    )
    def test_suite_discrepancies_are_pinned(self, gp, half, coarse, fine):
        # the semigroup campaign's four values; the march is exact IEEE
        # arithmetic, so a rewrite that moves any of them changed the scheme
        a = b = math.sqrt(0.5)
        cfg = cfg_for(gp, half)
        assert semigroup_check(gp, cosine(), a, b, cfg) == coarse
        assert semigroup_check(gp, cosine(), a, b, refined(cfg)) == fine

    def test_budget_validation(self):
        cfg = cfg_for(DEG, 7.0, dx=0.1)
        with pytest.raises(ValidationError):
            semigroup_check(DEG, cosine(), 1.0, 1.0, cfg)  # 2 > t_final = 1
        with pytest.raises(ValidationError):
            semigroup_check(DEG, cosine(), -0.5, 0.5, cfg)

    @pytest.mark.parametrize(
        "a, b", [(math.nan, 0.5), (0.5, math.nan), (-math.inf, 0.5), (0.5, math.inf), (-0.5, 0.5)]
    )
    def test_a_and_b_are_refused_before_any_march(self, monkeypatch, a, b):
        def no_march(*args):
            raise AssertionError("a leg was marched")

        monkeypatch.setattr(heat, "_march", no_march)
        cfg = cfg_for(DEG, 7.0, dx=0.1)
        with pytest.raises(ValidationError, match=rf"^need finite a, b >= 0, got a={a!r}, b={b!r}$"):
            semigroup_check(DEG, cosine(), a, b, cfg)


class TestConfigAndErrors:
    def test_cfl_violation_rejected(self):
        cfg = SolverConfig(-6.0, 6.0, 0.1, 0.02, 1.0)
        with pytest.raises(ValidationError, match="CFL"):
            solve(AMB, cosine(), cfg)

    def test_range_and_steps_must_be_positive(self):
        with pytest.raises(ValidationError, match="^x_range needs x_lo < x_hi$"):
            SolverConfig(1.0, 1.0, 0.1, 1e-3, 1.0)
        for dx, dt, t_final in ((0.0, 1e-3, 1.0), (0.1, -1e-3, 1.0), (0.1, 1e-3, 0.0)):
            with pytest.raises(ValidationError, match="^dx, dt and t_final must be positive$"):
                SolverConfig(-1.0, 1.0, dx, dt, t_final)

    def test_solve_needs_a_function_of_one_variable(self):
        with pytest.raises(ValidationError, match="^the solver evolves functions of one variable$"):
            solve(DEG, coord(0), cfg_for(DEG, 6.0, dx=0.5))

    def test_grid_must_divide(self):
        with pytest.raises(ValidationError):
            SolverConfig(-1.0, 1.0, 0.3, 1e-3, 1.0)
        with pytest.raises(ValidationError):
            SolverConfig(-1.0, 1.0, 0.5, 1e-3, 1.0)  # only 4 intervals
        with pytest.raises(ValidationError):
            SolverConfig(-6.0, 6.0, 0.1, 0.3, 1.0)  # t/dt not integer

    @pytest.mark.parametrize(
        "dx, dt",
        [(0.02, 1e-300), (0.02, 5e-324), (1e-320, 1e-3), (1e-6, 1e-3)],
        ids=["many-steps", "smallest-dt", "smallest-dx", "many-nodes"],
    )
    def test_work_cap(self, dx, dt):
        with pytest.raises(ValidationError, match="the caps are"):
            SolverConfig(-6.0, 6.0, dx, dt, 1.0)

    def test_stable_dt_for_an_underflowing_bound(self):
        # no float step is stable, so the config built from it is refused
        dt = stable_dt(AMB, 1e-300, 1.0)
        assert dt > 0
        with pytest.raises(ValidationError, match="the caps are"):
            SolverConfig(-6.0, 6.0, 1e-300, dt, 1.0)

    def test_stable_dt_for_an_overflowing_bound(self):
        # dx * dx overflows, so the bound is inf: one step, and a grid of no interval
        assert stable_dt(AMB, 1e300, 1.0) == 1.0
        with pytest.raises(ValidationError, match="^dx must divide"):
            SolverConfig(-6.0, 6.0, 1e300, stable_dt(AMB, 1e300, 1.0), 1.0)

    def test_non_finite_initial_data_aborts(self):
        bad = TestFunction(lambda x: np.where(np.abs(x) > 3, np.nan, x), dim=1)
        with pytest.raises(NumericsError):
            solve(DEG, bad, cfg_for(DEG, 6.0, dx=0.5))

    @pytest.mark.parametrize("a, b", [(0.0, 0.0), (0.5, 0.5)], ids=["no-leg", "two-legs"])
    def test_semigroup_refuses_non_finite_initial_data(self, a, b):
        # with a = b = 0 no leg marches, so only the check on phi can see the NaN
        bad = TestFunction(lambda x: np.where(np.abs(x) > 3, np.nan, x), dim=1)
        with pytest.raises(NumericsError, match="^initial data is not finite on the grid$"):
            semigroup_check(DEG, bad, a, b, cfg_for(DEG, 6.0, dx=0.5))

    def test_batch_error_names_the_step_and_each_row_time(self):
        xs = np.linspace(-6.0, 6.0, 25)
        phi = np.where(np.abs(xs) > 3, np.nan, np.cos(xs))
        dts = np.array([0.25, 0.5]) * cfl_limit(AMB, 0.5)
        t1, t2 = (float(dt) for dt in dts)
        message = f"non-finite values at step 1 (t={t1!r}, {t2!r}); aborting"
        with pytest.raises(NumericsError, match=f"^{re.escape(message)}$"):
            _march(np.array([phi, phi]), AMB, 0.5, dts, 3)

    def test_march_buffers_start_on_64_byte_boundaries(self):
        for shape in [(7,), (1251,), (1249, 2), (3, 5)]:
            buf = _aligned(shape)
            assert buf.shape == shape and buf.ctypes.data % 64 == 0

    def test_overflow_mid_march_aborts(self):
        alternating = TestFunction(lambda x: 1.7e308 * (-1.0) ** np.arange(x.size), dim=1)
        with pytest.raises(NumericsError, match=r"at step 1 \("):
            solve(DEG, alternating, cfg_for(DEG, 6.0, dx=0.5))

    def test_overflow_in_one_batch_row_aborts(self):
        xs = np.linspace(-3.0, 3.0, 61)
        rows = np.array([np.cos(xs), 1.7e308 * (-1.0) ** np.arange(xs.size)])
        before = rows.copy()
        dts = np.array([0.5, 0.9]) * cfl_limit(AMB, 0.1)
        with pytest.raises(NumericsError, match=r"at step 1 \("):
            _march(rows, AMB, 0.1, dts, 20)
        assert np.array_equal(rows, before)

    def test_names_the_first_non_finite_step(self):
        # a step far above the CFL bound grows the sawtooth until it overflows
        v = (-1.0) ** np.arange(61)
        dt = 50.0 * cfl_limit(DEG, 0.1)
        first = 1
        while True:  # one step per march, up to the first that raises
            try:
                v = _march(v, DEG, 0.1, dt, 1)
            except NumericsError:
                break
            first += 1
        assert first > 1
        with pytest.raises(NumericsError, match=rf"at step {first} \("):
            _march((-1.0) ** np.arange(61), DEG, 0.1, dt, first + 10)

    def test_huge_constant_stays_finite(self):
        # the profile's sum overflows, so a sum-based finiteness check would fail here
        cfg = cfg_for(AMB, 6.0, dx=0.01, t_final=0.01)
        assert cfg.n_intervals + 1 >= 1000
        vf = solve(AMB, const(1e306), cfg)
        assert np.all(vf.grid_values == 1e306)

    def test_unknown_boundary_rejected(self):
        # clamping the edges to phi is the only boundary, so a document cannot name one
        section = {"dx": 0.1, "boundary": "linear_extrapolate"}
        with pytest.raises(ValidationError, match="unknown key pde.boundary"):
            parse_solver_config(section, DEG)


class TestClassicalOracle:
    def test_polynomial_exactness(self):
        f = TestFunction(lambda x: x * x, dim=1)
        assert classical_oracle(1.0, 0.0, 1.0, f, 16) == pytest.approx(1.0, abs=1e-10)
        assert classical_oracle(1.7, 0.0, 1.0, f, 16) == pytest.approx(1.7**2, abs=1e-10)

    def test_constant(self):
        assert classical_oracle(1.0, 0.3, 0.7, const(4.2), 16) == pytest.approx(4.2, abs=1e-12)

    def test_cos_closed_form(self):
        assert classical_oracle(1.0, 0.0, 1.0, cosine(), 32) == pytest.approx(
            math.exp(-0.5), abs=1e-8
        )


def trinomial_step(gp, dx, dt, n):
    """One explicit march step as one nested step: per corner (q, s2), the law
    of Y on -dx*n, 0, +dx*n (X = 0), so that the nested step weight 1/n moves
    the sum by -dx, 0 or +dx, one node, with the upwind weights of the march."""
    laws = []
    for q, s2 in corners(gp):
        w_up = dt * (s2 / (2 * dx * dx) + max(q, 0.0) / dx)
        w_down = dt * (s2 / (2 * dx * dx) + max(-q, 0.0) / dx)
        atoms = [((0.0, -dx * n), w_down), ((0.0, 0.0), 1.0 - w_up - w_down), ((0.0, dx * n), w_up)]
        laws.append(DiscreteDistribution(atoms))
    return ScenarioSet(laws)


class TestTrinomialReference:
    def test_preset_solve_equals_the_nested_trinomial_march(self):
        # the g-* presets share gp, phi and pde, so one run covers both
        amb, per = load_preset("g-ambiguous"), load_preset("g-perturbed")
        assert (amb.gp, amb.phi.name, amb.pde) == (per.gp, per.phi.name, per.pde)
        gp, phi, cfg = amb.gp, amb.phi, amb.pde
        n = cfg.n_steps
        step = trinomial_step(gp, cfg.dx, cfg.dt, n)
        grid = NestedEvalConfig((cfg.x_lo, cfg.x_hi, cfg.n_intervals + 1), "grid_interp")
        nested = nested_expect(phi, [step] * n, n, grid)
        assert abs(nested - value_at(solve(gp, phi, cfg), 0.0)) <= 1e-12
