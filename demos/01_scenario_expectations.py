"""Worst-case expectations over finite scenario sets.

A scenario set is a finite family of discrete laws; its upper envelope
(max of the classical expectations) is a sublinear expectation. This demo
builds a variance-ambiguous coin, evaluates both envelope sides, and runs
the axiom and inequality certificates.
"""

import numpy as np

from gexpect import (
    DiscreteDistribution,
    ScenarioSet,
    expect,
    holder_check,
    lower_expect,
    verify_axioms,
)
from gexpect.functions import const, cosine, identity, square

# A fair coin paying +/- 1, or +/- 2 -- we do not know which.
coin = ScenarioSet(
    [DiscreteDistribution.symmetric_pair(1.0), DiscreteDistribution.symmetric_pair(2.0)],
    label="variance-ambiguous coin",
)

print(f"scenario set: {coin}")
print(f"upper E[x^2]  = {expect(square(), coin)}")
print(f"lower E[x^2]  = {lower_expect(square(), coin)}")
print(f"upper E[x]    = {expect(identity(), coin)}   (zero mean on both sides)")
print(f"lower E[x]    = {lower_expect(identity(), coin)}")

# The envelope satisfies the four sublinear-expectation axioms by
# construction; the checker certifies them on a family of test functions.
reports = verify_axioms(coin, [identity(), square(), cosine(), const(3.0)], tol=1e-10)
print(f"\naxiom certificate: all passed = {all(r.passed for r in reports.values())}")
for r in reports.values():
    print(f"  {r.summary()}")

# Reordering the scenarios leaves the upper expectation of every function unchanged.
reordered = ScenarioSet(list(reversed(coin.dists)))
gap = max(abs(expect(f, coin) - expect(f, reordered)) for f in [identity(), square(), cosine()])
print(f"\nreordering the scenarios changes E[f] by at most {gap!r} over x, x^2, cos")

# Hoelder and Lyapunov inequalities hold scenario-wise, hence for the max.
rng = np.random.default_rng(1)
pairs = ScenarioSet(
    [
        DiscreteDistribution(
            [(tuple(p), w) for p, w in zip(rng.uniform(-2, 2, (3, 2)), rng.dirichlet(np.ones(3)))]
        )
        for _ in range(3)
    ],
    label="random pairs",
)
print(f"Hoelder + Lyapunov certificate (p = q = 2): {holder_check(pairs, 2.0, 2.0, 1e-10)}")
