"""The sublinear functional G for rectangular mean/variance uncertainty.

With a mean interval [mu_lo, mu_hi] and a variance interval
[sig2_lo, sig2_hi] (0 < sig2_lo), the functional

    G(p, a) = max(p*mu_lo, p*mu_hi) + 1/2 * max(a*sig2_lo, a*sig2_hi)

is the maximum of the affine map (q, s2) -> q*p + s2*a/2 over the four
corners of the uncertainty rectangle. It is sub-additive, positively
homogeneous, monotone in ``a``, and uniformly elliptic with modulus
``sig2_lo``: the map a -> G(0, 2a) is piecewise linear with exactly the
slopes sig2_lo and sig2_hi. ``check_conditions`` reports it as ``beta``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Report, ValidationError


@dataclass(frozen=True)
class GParams:
    """Uncertainty bounds: mean interval and (strictly positive) variance interval."""

    mu_lo: float
    mu_hi: float
    sig2_lo: float
    sig2_hi: float

    def __post_init__(self) -> None:
        vals = (self.mu_lo, self.mu_hi, self.sig2_lo, self.sig2_hi)
        if not all(np.isfinite(vals)):
            raise ValidationError("mu and sigma2 must be finite")
        if self.mu_lo > self.mu_hi:
            raise ValidationError(f"mu needs lo <= hi, got [{self.mu_lo}, {self.mu_hi}]")
        if not 0 < self.sig2_lo <= self.sig2_hi:
            raise ValidationError(
                f"sigma2 must be a variance interval 0 < lo <= hi, got [{self.sig2_lo}, {self.sig2_hi}]"
            )

    @property
    def mu_abs(self) -> float:
        return max(abs(self.mu_lo), abs(self.mu_hi))

    @property
    def sigma_lo(self) -> float:
        return float(np.sqrt(self.sig2_lo))

    @property
    def sigma_hi(self) -> float:
        return float(np.sqrt(self.sig2_hi))


def g_eval(gp: GParams, p: float, a: float) -> float:
    """G(p, a): worst-case drift plus half the worst-case diffusion."""
    return max(p * gp.mu_lo, p * gp.mu_hi) + 0.5 * max(a * gp.sig2_lo, a * gp.sig2_hi)


_HOMOGENEITY_LAMBDAS = (0.0, 0.5, 1.0, 3.0)


def verify_g_properties(gp: GParams, samples: int, tol: float, seed: int = 0) -> Report:
    """Randomized check of sub-additivity, positive homogeneity, monotonicity
    in the second argument, and the continuity bound at (0, 0). Each check
    records its signed violation; ``worst`` is the largest, or 0."""
    if samples < 1:
        raise ValidationError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    report = Report("gfunction")
    for _ in range(samples):
        p, a, pb, ab = rng.uniform(-10.0, 10.0, size=4)
        g = g_eval(gp, p, a)

        viol = g_eval(gp, p + pb, a + ab) - (g + g_eval(gp, pb, ab))
        report.record(
            viol <= tol, viol, "sub-additivity violated by %r at %s", viol, (p, a, pb, ab)
        )

        for lam in _HOMOGENEITY_LAMBDAS:
            diff = abs(g_eval(gp, lam * p, lam * a) - lam * g)
            report.record(
                diff <= tol, diff, "homogeneity violated by %r at lambda=%s, %s", diff, lam, (p, a)
            )

        lo_a, hi_a = min(a, ab), max(a, ab)
        viol = g_eval(gp, p, lo_a) - g_eval(gp, p, hi_a)
        report.record(
            viol <= tol, viol, "monotonicity in a violated by %r at %s", viol, (p, lo_a, hi_a)
        )

        bound = gp.mu_abs * abs(p) + 0.5 * gp.sig2_hi * abs(a)
        viol = abs(g) - bound
        report.record(viol <= tol, viol, "continuity bound violated by %r at %s", viol, (p, a))
    return report
