"""Randomized verification campaigns with recorded seeds.

Each campaign draws its instances from a seeded generator, so a reported
failure can be replayed exactly. The campaigns back both the ``verify``
subcommand and the acceptance tests:

* ``axioms``     — sublinear-expectation axioms on random sets/functions
* ``gfunction``  — structural properties of the corner functional G
* ``holder``     — Hoelder/Lyapunov inequalities on random 2-d sets
* ``oracle``     — nested backward recursion vs brute-force policy
                   enumeration on random lattice-compatible models
* ``semigroup``  — two-stage vs single-stage solver composition

``run_suites``, behind ``gexpect verify``, runs the campaigns and the
semigroup suite's four ``semigroup_check`` calls side by side, one forked
worker per usable CPU (``fork_map``), and returns each suite's report as
the suite computes it alone; with one usable CPU it runs them in turn in
this process.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import Report
from .functions import TestFunction, const, cosine
from .gfunction import GParams, verify_g_properties
from .heat import HEAT_S_PER_NODE_UPDATE, SolverConfig, semigroup_check, stable_dt
from .nested import NestedEvalConfig, bruteforce_nested, nested_expect
from .parallel import fork_map
from .scenarios import DiscreteDistribution, ScenarioSet, holder_check, verify_axioms


# ---------------------------------------------------------------------------
# random instance generators
# ---------------------------------------------------------------------------

def random_scenario_set(rng: np.random.Generator, dim: int, radius: float = 3.0) -> ScenarioSet:
    """One to four laws of one to five atoms each, points uniform in [-radius, radius]^dim."""
    dists = []
    for _ in range(int(rng.integers(1, 5))):
        n_atoms = int(rng.integers(1, 6))
        pts = rng.uniform(-radius, radius, size=(n_atoms, dim))
        wts = rng.dirichlet(np.ones(n_atoms))
        atoms = [(tuple(p), float(w)) for p, w in zip(pts, wts)]
        dists.append(DiscreteDistribution(atoms))
    return ScenarioSet(dists, label="random")


def random_poly_function(rng: np.random.Generator) -> TestFunction:
    a, b, c = rng.uniform(-1.0, 1.0, size=3)
    return TestFunction(
        lambda x, a=a, b=b, c=c: a * x + b * x * x + c * np.abs(x),
        dim=1,
        name=f"poly({a:.2f},{b:.2f},{c:.2f})",
    )


# (scenario cap, atom cap) keeping the adapted-policy count under 10^6
_SAFE_SHAPES = {1: [(3, 3)], 2: [(3, 3)], 3: [(3, 2), (2, 3)], 4: [(2, 2)]}


def random_lattice_model(rng: np.random.Generator):
    """A small model of 1 to 4 steps whose increments lie on a common lattice
    for the weights (sqrt(1/n), 1/n): x atoms are integer multiples of
    g*sqrt(n) and y atoms integer multiples of g*n, so every increment is an
    integer multiple of g. Returns (steps, n)."""
    n = int(rng.integers(1, 5))
    k_cap, a_cap = _SAFE_SHAPES[n][int(rng.integers(len(_SAFE_SHAPES[n])))]
    g = float(rng.choice([0.5, 0.25, 0.125]))
    combos = [(u, v) for u in range(-3, 4) for v in range(-2, 3)]
    steps = []
    for _ in range(n):
        dists = []
        for _ in range(int(rng.integers(1, k_cap + 1))):
            n_atoms = int(rng.integers(1, a_cap + 1))
            picks = rng.choice(len(combos), size=n_atoms, replace=False)
            wts = rng.dirichlet(np.ones(n_atoms))
            atoms = []
            for idx, w in zip(picks, wts):
                u, v = combos[idx]
                atoms.append(((u * g * math.sqrt(n), v * g * n), float(w)))
            dists.append(DiscreteDistribution(atoms))
        steps.append(ScenarioSet(dists, label="lattice-random"))
    return steps, n


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------

def axiom_campaign(draws: int = 1000, tol: float = 1e-10, seed: int = 0) -> Report:
    rng = np.random.default_rng(seed)
    result = Report("axioms")
    for _ in range(draws):
        s = random_scenario_set(rng, dim=1)
        f1 = random_poly_function(rng)
        bump = rng.uniform(0.0, 1.0, size=2)
        f2 = TestFunction(
            lambda x, f=f1.fn, d=bump[0], e=bump[1]: np.asarray(f(x)) + d + e * x * x,
            dim=1,
            name="poly+bump",
        )
        fns = [f1, f2, const(float(rng.uniform(-3, 3)))]
        reports = verify_axioms(s, fns, tol).values()
        witnesses = [f"{r.name}: {w}" for r in reports for w in r.details[:1]]
        result.record(not witnesses, 0.0, "; ".join(witnesses))
    return result


def gfunction_campaign(draws: int = 1000, tol: float = 1e-10, seed: int = 0) -> Report:
    rng = np.random.default_rng(seed)
    result = Report("gfunction")
    for _ in range(draws):
        mu_lo = float(rng.uniform(-2.0, 2.0))
        mu_hi = mu_lo + float(rng.uniform(0.0, 2.0))
        s2_lo = float(rng.uniform(0.1, 2.0))
        s2_hi = s2_lo + float(rng.uniform(0.0, 3.0))
        gp = GParams(mu_lo, mu_hi, s2_lo, s2_hi)
        report = verify_g_properties(gp, samples=1, tol=tol, seed=int(rng.integers(2**31)))
        # worst is the largest violation among failing draws only
        worst = 0.0 if report.passed else report.worst
        result.record(report.passed, worst, "; ".join(report.details[:2]))
    return result


def holder_campaign(draws: int = 200, tol: float = 1e-10, seed: int = 0) -> Report:
    rng = np.random.default_rng(seed)
    result = Report("holder")
    for _ in range(draws):
        s = random_scenario_set(rng, dim=2, radius=2.0)
        result.record(holder_check(s, p=2.0, q=2.0, tol=tol), 0.0, "violation on %r", s)
    return result


def oracle_campaign(models: int = 100, tol: float = 1e-12, seed: int = 0) -> Report:
    cfg = NestedEvalConfig(mode="exact_lattice")
    rng = np.random.default_rng(seed)
    result = Report("oracle")
    for _ in range(models):
        steps, n = random_lattice_model(rng)
        a, b, c = rng.uniform(-1.0, 1.0, size=3)
        phi = TestFunction(
            lambda s, a=a, b=b, c=c: a * s + b * s * s + c * np.cos(s), dim=1, name="mix"
        )
        v_dp = nested_expect(phi, steps, n, cfg)
        v_bf = bruteforce_nested(phi, steps, n)
        diff = abs(v_dp - v_bf)
        result.record(diff <= tol, diff, "n=%d: |dp - brute| = %r", n, diff)
    return result


_SEMIGROUP_CASES = (
    ("degenerate", GParams(0.0, 0.0, 1.0, 1.0), 7.0),
    ("ambiguous", GParams(-1.0, 1.0, 1.0, 4.0), 13.0),
)


def _semigroup_checks() -> list[tuple]:
    """The ``semigroup_check`` arguments of the semigroup suite: per case, the
    coarse grid then the fine one."""
    a = b = math.sqrt(0.5)
    dx = 0.02
    phi = cosine()
    checks = []
    for _, gp, half in _SEMIGROUP_CASES:
        coarse_cfg = SolverConfig(-half, half, dx, stable_dt(gp, dx, 1.0), 1.0)
        fine_cfg = SolverConfig(-half, half, dx / 2, coarse_cfg.dt / 4, 1.0)
        checks += [(gp, phi, a, b, coarse_cfg), (gp, phi, a, b, fine_cfg)]
    return checks


def _semigroup_report(values: list[float]) -> Report:
    """The semigroup suite's report from the values of ``_semigroup_checks``."""
    result = Report("semigroup")
    threshold = 1e-2
    for (label, _, _), coarse, fine in zip(_SEMIGROUP_CASES, values[::2], values[1::2]):
        result.record(
            coarse <= threshold, coarse, "%s: coarse discrepancy %r > %s", label, coarse, threshold
        )
        result.record(fine < coarse, 0.0, "%s: no contraction (%r -> %r)", label, coarse, fine)
    return result


def semigroup_suite(seed: int = 0) -> Report:
    """Two-stage vs single-stage discrepancy at a = b = sqrt(1/2), at most
    1e-2 at dx = 0.02, plus the refinement contraction under (dx, dt) ->
    (dx/2, dt/4). Deterministic: ``seed`` is accepted so every suite shares
    one signature."""
    return _semigroup_report([semigroup_check(*args) for args in _semigroup_checks()])


SUITES = {
    "axioms": axiom_campaign,
    "gfunction": gfunction_campaign,
    "holder": holder_campaign,
    "oracle": oracle_campaign,
    "semigroup": semigroup_suite,
}


def run_suite(name: str, seed: int = 0) -> Report:
    return SUITES[name](seed=seed)


def run_suites(names: list[str], seed: int = 0) -> list[Report]:
    """The reports of the named suites, in the order of ``names``.

    The semigroup suite's four ``semigroup_check`` calls and the campaigns
    share no state, so they go through ``fork_map`` as one queue, in that
    order, with their estimated costs: a check its three legs' node updates,
    a campaign, which is not estimated, 0, so it queues after the marches.
    Every value is the one the suite computes on its own."""
    checks = _semigroup_checks() if "semigroup" in names else []
    campaigns = [name for name in names if name != "semigroup"]
    costs = [3 * cfg.n_steps * (cfg.n_intervals + 1) * HEAT_S_PER_NODE_UPDATE for *_, cfg in checks]
    values = fork_map(
        lambda t: run_suite(t, seed) if isinstance(t, str) else semigroup_check(*t),
        checks + campaigns,
        costs + [0.0] * len(campaigns),
    )
    done = dict(zip(campaigns, values[len(checks) :]))
    done["semigroup"] = _semigroup_report(values[: len(checks)])  # empty unless named
    return [done[name] for name in names]

