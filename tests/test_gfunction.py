"""Corner functional G: evaluation, ellipticity modulus, structural properties."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gexpect import GParams, ValidationError, g_eval, verify_g_properties

GP = GParams(-1.0, 1.0, 1.0, 4.0)


def corner_max(gp, p, a):
    return max(
        q * p + 0.5 * s2 * a
        for q, s2 in itertools.product((gp.mu_lo, gp.mu_hi), (gp.sig2_lo, gp.sig2_hi))
    )


class TestGEval:
    def test_corner_maximization(self):
        assert g_eval(GP, 1.0, 2.0) == pytest.approx(5.0, abs=1e-15)

    def test_zero_at_origin(self):
        assert g_eval(GP, 0.0, 0.0) == 0.0
        assert g_eval(GParams(0.3, 0.7, 0.5, 0.5), 0.0, 0.0) == 0.0

    def test_opposite_corners(self):
        assert g_eval(GP, -2.0, -2.0) == pytest.approx(1.0, abs=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-50, 50, allow_nan=False), st.floats(-50, 50, allow_nan=False))
    def test_equals_four_corner_enumeration(self, p, a):
        assert g_eval(GP, p, a) == pytest.approx(corner_max(GP, p, a), abs=1e-15)


class TestBeta:
    """The modulus is sig2_lo, the ``beta`` of ``check_conditions``' report."""

    def test_degenerate_interval_is_linear(self):
        gp = GParams(0.0, 0.0, 2.0, 2.0)
        for a, abar in [(-3.0, -5.0), (4.0, 1.0), (2.0, -2.0)]:
            lhs = g_eval(gp, 0.0, 2 * a) - g_eval(gp, 0.0, 2 * abar)
            assert lhs == pytest.approx(2.0 * (a - abar), abs=1e-12)

    def test_modulus_is_tight(self):
        rng = np.random.default_rng(31)
        b = GP.sig2_lo
        for _ in range(200):
            lo, hi = np.sort(rng.uniform(-10, 10, size=2))
            gap = g_eval(GP, 0.0, 2 * hi) - g_eval(GP, 0.0, 2 * lo)
            assert gap >= b * (hi - lo) - 1e-12
        # any larger modulus fails on the lower branch, where the slope is sig2_lo
        b_prime = b * (1.0 + 1e-6)
        a, abar = -1.0, -2.0
        gap = g_eval(GP, 0.0, 2 * a) - g_eval(GP, 0.0, 2 * abar)
        assert gap < b_prime * (a - abar)

    def test_two_slopes_of_the_variance_map(self):
        f = lambda a: g_eval(GP, 0.0, 2 * a)
        assert (f(-1.0) - f(-2.0)) == pytest.approx(GP.sig2_lo, abs=1e-12)
        assert (f(3.0) - f(2.0)) == pytest.approx(GP.sig2_hi, abs=1e-12)


class TestProperties:
    def test_campaign_tight_tolerance(self):
        report = verify_g_properties(GP, samples=1000, tol=1e-12, seed=2)
        assert report.passed, report.details
        assert report.checks == 7000

    def test_failed_checks_keep_five_witnesses(self):
        """A negative tolerance fails every check, so every witness is formatted."""
        report = verify_g_properties(GP, samples=2, tol=-100.0, seed=2)
        assert report.failures == report.checks == 14
        assert len(report.details) == 5
        assert report.details[0].startswith("sub-additivity violated by ")
        assert report.details[1].startswith("homogeneity violated by ")

    def test_degenerate_is_linear(self):
        gp = GParams(0.5, 0.5, 2.0, 2.0)
        rng = np.random.default_rng(8)
        for _ in range(100):
            p, a, pb, ab = rng.uniform(-5, 5, size=4)
            lhs = g_eval(gp, p + pb, a + ab)
            rhs = g_eval(gp, p, a) + g_eval(gp, pb, ab)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_sample_validation(self):
        with pytest.raises(ValidationError):
            verify_g_properties(GP, samples=0, tol=1e-12)


class TestGParamsValidation:
    def test_empty_mean_interval(self):
        with pytest.raises(ValidationError):
            GParams(1.0, -1.0, 1.0, 2.0)

    def test_zero_variance_floor_rejected(self):
        with pytest.raises(ValidationError):
            GParams(0.0, 0.0, 0.0, 1.0)

    def test_bounds_must_be_finite(self):
        for bounds in ((math.nan, 0.0, 1.0, 1.0), (0.0, math.inf, 1.0, 1.0), (0.0, 0.0, 1.0, math.inf)):
            with pytest.raises(ValidationError, match="^mu and sigma2 must be finite$"):
                GParams(*bounds)

    def test_inverted_variance_interval(self):
        with pytest.raises(ValidationError):
            GParams(0.0, 0.0, 4.0, 1.0)
