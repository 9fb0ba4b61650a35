"""Nested worst-case evaluation and its brute-force oracle.

Directional independence is realized by nesting order: the later step's
maximization sits innermost. The nested backward recursion must agree with
an independent oracle that enumerates every adapted scenario policy and
takes the best classical expectation. The demo also pins the asymmetry:
swapping the step order is a different computation with a different value.
"""

import numpy as np

from gexpect import (
    DiscreteDistribution,
    ScenarioSet,
    TestFunction,
    bruteforce_nested,
    count_policies,
    nested_expect,
)
from gexpect.functions import square
from gexpect.nested import NestedEvalConfig
from gexpect.verify import random_lattice_model

lattice = NestedEvalConfig(mode="exact_lattice")

# Two steps of a +/- sigma coin with sigma ambiguous in {1, 2}. The sum is
# S = (X1 + X2)/sqrt(2): each step contributes its worst-case variance 4
# times the squared weight 1/2, so the nested value of S^2 is 4.
steps = [
    ScenarioSet(
        [DiscreteDistribution([((s, 0.0), 0.5), ((-s, 0.0), 0.5)]) for s in (1.0, 2.0)]
    )
] * 2
print("nested value of S^2:        ", nested_expect(square(), steps, 2, lattice))
print("adapted-policy maximum:     ", bruteforce_nested(square(), steps, 2))
print("adapted policies enumerated:", count_policies(steps, 2))

# Random small models: the backward recursion and the policy enumeration
# must agree to machine precision.
rng = np.random.default_rng(7)
worst = 0.0
for _ in range(20):
    model, n = random_lattice_model(rng)
    phi = TestFunction(lambda s: np.cos(s) + 0.3 * s, dim=1)
    worst = max(worst, abs(nested_expect(phi, model, n, lattice) - bruteforce_nested(phi, model, n)))
print(f"\n20 random models: worst |recursion - enumeration| = {worst:.2e}")

# Independence is directional: exposing the sign-ambiguous step first is
# not the same experiment as exposing it second.
sign_ambiguous = ScenarioSet(
    [DiscreteDistribution.point_mass((1.0, 0.0)), DiscreteDistribution.point_mass((-1.0, 0.0))]
)
coin_or_zero = ScenarioSet(
    [
        DiscreteDistribution([((1.0, 0.0), 0.5), ((-1.0, 0.0), 0.5)]),
        DiscreteDistribution.point_mass((0.0, 0.0)),
    ]
)
phi = TestFunction(lambda s: -(s * s), dim=1, name="-s^2")
fwd = nested_expect(phi, [sign_ambiguous, coin_or_zero], 2, lattice)
rev = nested_expect(phi, [coin_or_zero, sign_ambiguous], 2, lattice)
print(f"\nworst case of -(S^2), ambiguity first:  {fwd}")
print(f"worst case of -(S^2), ambiguity second: {rev}")
