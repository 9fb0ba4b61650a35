"""Sequence builders, condition checkers, convergence runner, cross-encoding."""

import math

import numpy as np
import pytest

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
from gexpect.clt import SequenceModel, reencode_model
from gexpect.functions import const, coord, coord_abs_power, cosine, ramp
from gexpect.nested import NestedEvalConfig
from gexpect.scenarios import ScenarioSet

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
